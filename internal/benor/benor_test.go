package benor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// runT runs cfg through Run with a 30-second deadline.
func runT(t *testing.T, cfg Config[int], proc Processor[int]) checker.Execution[int] {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return Run(ctx, cfg, proc)
}

// mustAgree asserts agreement, validity and termination over the
// processors the crash plan spared, and returns the decided value.
func mustAgree(t *testing.T, res checker.Execution[int], inputs []int) int {
	t.Helper()
	outs := res.Outcomes()
	if rep := checker.CheckConsensus(outs, workload.InputsToMap(inputs), true); !rep.Ok() {
		t.Fatalf("%v (errors %v)", rep, res.Errs)
	}
	return outs[0].Value
}

func TestDecomposedAllSameInputCommitsRoundOne(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = 1
		}
		res := runT(t, Config[int]{T: (n - 1) / 2, Inputs: inputs, MaxRounds: 50, Seed: uint64(n), RNG: sim.NewRNG(99)}, RunDecomposed)
		if v := mustAgree(t, res, inputs); v != 1 {
			t.Fatalf("n=%d: decided %d with unanimous input 1", n, v)
		}
		for id, d := range res.Decisions {
			if d.Round != 1 {
				t.Fatalf("n=%d node %d decided in round %d, convergence demands round 1", n, id, d.Round)
			}
		}
	}
}

func TestDecomposedSplitInputsReachConsensus(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		inputs := []int{0, 1, 0, 1, 0}
		mustAgree(t, runT(t, Config[int]{T: 2, Inputs: inputs, MaxRounds: 200, Seed: seed, RNG: sim.NewRNG(seed * 31)}, RunDecomposed), inputs)
	}
}

func TestDecomposedToleratesCrashes(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		inputs := []int{0, 1, 0, 1, 0, 1, 0}
		// Crash 3 processors: one immediately, one after 5 sends (mid
		// first broadcast), one after 20 sends.
		crashes := []workload.CrashSpec{{Node: 6}, {Node: 5, AfterSends: 5}, {Node: 4, AfterSends: 20}}
		mustAgree(t, runT(t, Config[int]{T: 3, Inputs: inputs, Crashes: crashes, MaxRounds: 300, Seed: seed, RNG: sim.NewRNG(seed)}, RunDecomposed), inputs)
	}
}

func TestMonolithicMatchesDecomposedSafety(t *testing.T) {
	inputs := []int{1, 0, 1, 0, 1}
	for seed := uint64(0); seed < 6; seed++ {
		for _, proc := range []Processor[int]{RunMonolithic, RunDecomposed} {
			mustAgree(t, runT(t, Config[int]{T: 2, Inputs: inputs, MaxRounds: 200, Seed: seed, RNG: sim.NewRNG(seed)}, proc), inputs)
		}
	}
}

// TestRunLeavesCrashedProcessorsOut: the plan's processors are missing
// from Outcomes but keep their errors; every other one is listed.
func TestRunLeavesCrashedProcessorsOut(t *testing.T) {
	inputs := []int{0, 1, 0, 1, 0}
	res := runT(t, Config[int]{T: 2, Inputs: inputs, Crashes: []workload.CrashSpec{{Node: 3}, {Node: 1, AfterSends: 2}},
		MaxRounds: 200, Seed: 4, RNG: sim.NewRNG(4)}, RunDecomposed)
	mustAgree(t, res, inputs)
	var listed []int
	for _, o := range res.Outcomes() {
		listed = append(listed, o.Node)
	}
	if fmt.Sprint(listed) != "[0 2 4]" || !res.Crashed[1] || !res.Crashed[3] {
		t.Fatalf("outcomes list nodes %v, crashed %v; want [0 2 4] with 1 and 3 crashed", listed, res.Crashed)
	}
	for _, id := range []int{1, 3} {
		if !errors.Is(res.Errs[id], msgnet.ErrCrashed) {
			t.Errorf("crashed node %d: err = %v, want ErrCrashed", id, res.Errs[id])
		}
	}
}

// TestRunForksEachProcessorsCoins: processor id draws from RNG.Fork(id),
// the stream every harness forked by hand before the runner.
func TestRunForksEachProcessorsCoins(t *testing.T) {
	draw := func(_ context.Context, _ msgnet.Endpoint, rng *sim.RNG, _ int, _ int, _ ...core.Option) (core.Decision[int], error) {
		return core.Decision[int]{Value: rng.Intn(1 << 30), Round: rng.Intn(1 << 30)}, nil
	}
	res := runT(t, Config[int]{Inputs: make([]int, 4), RNG: sim.NewRNG(7)}, draw)
	for id, d := range res.Decisions {
		want := sim.NewRNG(7).Fork(uint64(id))
		if d != (core.Decision[int]{Value: want.Intn(1 << 30), Round: want.Intn(1 << 30)}) {
			t.Errorf("node %d drew %+v, not RNG.Fork(%d)'s stream", id, d, id)
		}
	}
}

// TestRunRecordsEveryProcessor: the recorder gets each processor's
// template calls and decision under its own id, and the network's sends.
func TestRunRecordsEveryProcessor(t *testing.T) {
	rec := trace.NewRecorder()
	runT(t, Config[int]{T: 2, Inputs: []int{0, 1, 0, 1, 1}, MaxRounds: 200, Seed: 9, RNG: sim.NewRNG(9), Recorder: rec}, RunDecomposed)
	tr := rec.Snapshot()
	returns, decides := map[int]bool{}, map[int]bool{}
	for _, ev := range trace.Returns(tr, "vac") {
		returns[ev.Node] = true
	}
	for _, ev := range trace.Decisions(tr) {
		decides[ev.Node] = true
	}
	if len(returns) != 5 || len(decides) != 5 || trace.Summarize(tr).MessagesSent == 0 {
		t.Fatalf("vac returns from %v, decisions from %v, %d sends; want all 5 nodes and the network's sends",
			returns, decides, trace.Summarize(tr).MessagesSent)
	}
}

func TestVACRejectsBadParameters(t *testing.T) {
	nw := netsim.New(4)
	if _, err := NewVAC(nw.Node(0), 2); err == nil {
		t.Fatal("t=2, n=4 accepted (violates 2t<n)")
	}
	if _, err := NewVAC(nw.Node(0), -1); err == nil {
		t.Fatal("negative t accepted")
	}
	vac, err := NewVAC(nw.Node(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vac.Propose(context.Background(), 7, 1); err == nil {
		t.Fatal("non-binary input accepted")
	}
}

func TestMonolithicRejectsBadParameters(t *testing.T) {
	nw := netsim.New(4)
	rng := sim.NewRNG(1)
	if _, err := RunMonolithic(context.Background(), nw.Node(0), rng, 2, 0, core.WithMaxRounds(10)); err == nil {
		t.Fatal("t=2, n=4 accepted")
	}
	if _, err := RunMonolithic(context.Background(), nw.Node(0), rng, 1, 5, core.WithMaxRounds(10)); err == nil {
		t.Fatal("non-binary input accepted")
	}
}

// vacOutcome is one processor's single-round VAC output.
type vacOutcome struct {
	id   int
	conf core.Confidence
	val  int
	err  error
}

// oneVACRound runs a single VAC.Propose on every processor concurrently.
func oneVACRound(t *testing.T, n, tFaults int, inputs []int, seed uint64, opts ...netsim.Option) []vacOutcome {
	t.Helper()
	nw := netsim.New(n, append([]netsim.Option{netsim.WithSeed(seed)}, opts...)...)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outs := make([]vacOutcome, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			vac, err := NewVAC(nw.Node(id), tFaults)
			if err != nil {
				outs[id] = vacOutcome{id: id, err: err}
				return
			}
			c, v, err := vac.Propose(ctx, inputs[id], 1)
			outs[id] = vacOutcome{id: id, conf: c, val: v, err: err}
		}(id)
	}
	wg.Wait()
	return outs
}

// checkVACProperties asserts the paper's four VAC guarantees on a set of
// single-round outcomes.
func checkVACProperties(t *testing.T, outs []vacOutcome, inputs []int) {
	t.Helper()
	sawCommit, sawAdopt := false, false
	commitVal, adoptVal := 0, 0
	for _, o := range outs {
		if o.err != nil {
			t.Fatalf("node %d: %v", o.id, o.err)
		}
		switch o.conf {
		case core.Commit:
			if sawCommit && o.val != commitVal {
				t.Fatalf("two commits with different values: %d vs %d", o.val, commitVal)
			}
			sawCommit, commitVal = true, o.val
		case core.Adopt:
			if sawAdopt && o.val != adoptVal {
				t.Fatalf("two adopts with different values: %d vs %d", o.val, adoptVal)
			}
			sawAdopt, adoptVal = true, o.val
		}
	}
	// Coherence over adopt & commit: a commit forbids vacillate anywhere
	// and fixes everyone's value.
	if sawCommit {
		for _, o := range outs {
			if o.conf == core.Vacillate {
				t.Fatalf("node %d vacillated while node committed %d", o.id, commitVal)
			}
			if o.val != commitVal {
				t.Fatalf("node %d carries %d; committed value is %d", o.id, o.val, commitVal)
			}
		}
	}
	// Coherence over vacillate & adopt: without commits, all adopts agree
	// (checked above via adoptVal).
	// Validity: every returned value was some processor's input.
	for _, o := range outs {
		valid := false
		for _, in := range inputs {
			if in == o.val {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("node %d returned %d, not an input of %v", o.id, o.val, inputs)
		}
	}
}

func TestVACSingleRoundProperties(t *testing.T) {
	cfgs := []struct{ n, t int }{{3, 1}, {5, 2}, {7, 3}, {9, 4}}
	for _, cfg := range cfgs {
		for seed := uint64(0); seed < 20; seed++ {
			inputs := make([]int, cfg.n)
			rng := sim.NewRNG(seed)
			for i := range inputs {
				inputs[i] = rng.Bit()
			}
			outs := oneVACRound(t, cfg.n, cfg.t, inputs, seed)
			checkVACProperties(t, outs, inputs)
		}
	}
}

func TestVACConvergence(t *testing.T) {
	for _, v := range []int{0, 1} {
		inputs := []int{v, v, v, v, v}
		outs := oneVACRound(t, 5, 2, inputs, 42)
		for _, o := range outs {
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.conf != core.Commit || o.val != v {
				t.Fatalf("convergence violated: node %d got (%v, %d) with unanimous input %d",
					o.id, o.conf, o.val, v)
			}
		}
	}
}

func TestVACSurvivesDuplicatedMessages(t *testing.T) {
	// Per-sender deduplication must keep thresholds honest even when the
	// network duplicates every message: unanimity still commits at once.
	for _, o := range oneVACRound(t, 5, 2, []int{1, 1, 1, 1, 1}, 3, netsim.WithDupRate(1)) {
		if o.err != nil || o.conf != core.Commit || o.val != 1 {
			t.Fatalf("node %d: (%v, %d, %v), want (commit, 1)", o.id, o.conf, o.val, o.err)
		}
	}
}

func TestReconciliatorIsAFairCoin(t *testing.T) {
	r := NewReconciliator(sim.NewRNG(7))
	ones := 0
	const k = 10000
	for i := 0; i < k; i++ {
		v, err := r.Reconcile(context.Background(), core.Vacillate, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 && v != 1 {
			t.Fatalf("coin produced %d", v)
		}
		ones += v
	}
	if ones < k*45/100 || ones > k*55/100 {
		t.Fatalf("coin produced %d/%d ones", ones, k)
	}
}

func TestBiasedReconciliator(t *testing.T) {
	for _, p := range []float64{0, 0.25, 1} {
		r := NewBiasedReconciliator(sim.NewRNG(5), p)
		ones := 0
		const k = 8000
		for i := 0; i < k; i++ {
			v, err := r.Reconcile(context.Background(), core.Vacillate, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			ones += v
		}
		got := float64(ones) / k
		if got < p-0.03 || got > p+0.03 {
			t.Fatalf("p=%v: observed frequency %v", p, got)
		}
	}
}

func TestDecomposedCrashedNodeReturnsError(t *testing.T) {
	nw := netsim.New(3, netsim.WithSeed(1))
	nw.Crash(0)
	rng := sim.NewRNG(1)
	_, err := RunDecomposed(context.Background(), nw.Node(0), rng, 1, 0, core.WithMaxRounds(10))
	if !errors.Is(err, msgnet.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
}

func TestMessageStrings(t *testing.T) {
	if got := (Report[int]{Round: 2, Value: 1}).String(); got != "<1,1>@2" {
		t.Errorf("Report.String() = %q", got)
	}
	if got := (Ratify[int]{Round: 3, Value: 0, HasValue: true}).String(); got != "<2,0,ratify>@3" {
		t.Errorf("Ratify.String() = %q", got)
	}
	if got := (Ratify[int]{Round: 3}).String(); got != "<2,?>@3" {
		t.Errorf("question Ratify.String() = %q", got)
	}
	if got := (Report[string]{Round: 2, Value: "a"}).String(); got != "<1,a>@2" {
		t.Errorf("Report[string].String() = %q", got)
	}
	if got := (Ratify[string]{Round: 3, Value: "a", HasValue: true}).String(); got != "<2,a,ratify>@3" {
		t.Errorf("Ratify[string].String() = %q", got)
	}
}

// TestVACIgnoresOutOfDomainValues: a value from the wire outside {0, 1}
// fills its sender's quorum slot but is never counted, so the binary VAC
// neither blocks for a quorum nor ratifies, adopts or commits it. Each
// of the two counting loops' filters is caught on its own.
func TestVACIgnoresOutOfDomainValues(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		nw := netsim.New(3, netsim.WithSeed(seed))
		for _, peer := range []int{1, 2} {
			if err := nw.Node(peer).Send(0, Report[int]{Round: 1, Value: 7}); err != nil {
				t.Fatal(err)
			}
			if err := nw.Node(peer).Send(0, Ratify[int]{Round: 1, Value: 7, HasValue: true}); err != nil {
				t.Fatal(err)
			}
		}
		vac, err := NewVAC(nw.Node(0), 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		conf, v, err := vac.Propose(ctx, 0, 1)
		cancel()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if conf == core.Commit || v != 0 {
			t.Fatalf("seed %d: returned (%v, %d), want vacillate or adopt with 0", seed, conf, v)
		}
		// Node 0's own phase-2 broadcast asked "?".
		for {
			m, ok, err := nw.Node(1).TryRecv()
			if err != nil || !ok {
				break
			}
			if r, isRatify := m.Payload.(Ratify[int]); isRatify && r.HasValue {
				t.Fatalf("seed %d: node 0 ratified %d", seed, r.Value)
			}
		}
	}
}
