package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ooc/internal/bench"
	"ooc/internal/benor"
	"ooc/internal/core"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// benOrTrace runs one half-split Ben-Or consensus under the template
// and returns its in-memory trace.
func benOrTrace(t *testing.T, n int, seed uint64) trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	rng := sim.NewRNG(seed)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := benor.Run(ctx, benor.Config[int]{T: (n - 1) / 2, Inputs: workload.BinaryInputs(workload.SplitHalf, n, rng),
		MaxRounds: 2000, Seed: seed, RNG: rng, Recorder: rec}, benor.RunDecomposed)
	if err := errors.Join(res.Errs...); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot()
}

// printedOutcomes parses printOutcomes' table for one detector object
// into per-round vacillate/adopt/commit counts.
func printedOutcomes(t *testing.T, out, object string) map[int][core.Commit + 1]int {
	t.Helper()
	got := map[int][core.Commit + 1]int{}
	in := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "detector outcomes: "+object:
			in = true
		case in && strings.TrimSpace(line) == "":
			return got
		case in && !strings.HasPrefix(strings.TrimSpace(line), "round"):
			var r int
			var c [core.Commit + 1]int
			if _, err := fmt.Sscan(line, &r, &c[core.Vacillate], &c[core.Adopt], &c[core.Commit]); err != nil {
				t.Fatalf("unparsable outcome row %q: %v", line, err)
			}
			got[r] = c
		}
	}
	if !in {
		t.Fatalf("no %q outcome table in:\n%s", object, out)
	}
	return got
}

// TestOutcomesMatchTheInMemoryTrace runs a Ben-Or trace through the
// trace file format and printOutcomes: the per-round counts it prints
// must be the ones E8 computes from the trace before it was written.
func TestOutcomesMatchTheInMemoryTrace(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tr := benOrTrace(t, 5, seed)
		want := bench.OutcomeClasses(tr, "vac")
		if len(want) == 0 {
			t.Fatalf("seed %d: the trace holds no VAC returns", seed)
		}

		var file bytes.Buffer
		if err := trace.WriteJSON(&file, tr); err != nil {
			t.Fatal(err)
		}
		decoded, err := trace.ReadJSON(&file)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		printOutcomes(&out, decoded)

		got := printedOutcomes(t, out.String(), "vac")
		if len(got) != len(want) {
			t.Fatalf("seed %d: printed %d rounds, the trace has %d:\n%s", seed, len(got), len(want), out.String())
		}
		for r, w := range want {
			if got[r] != w {
				t.Errorf("seed %d round %d: printed %v, trace has %v", seed, r, got[r], w)
			}
		}
	}
}
