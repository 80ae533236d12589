package multivalue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/netsim"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

// runCluster runs the multivalued protocol through benor.Run and returns
// the outcomes of the processors the crash plan spared.
func runCluster[V comparable](t *testing.T, cfg benor.Config[V]) []checker.RunOutcome[V] {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res := benor.Run(ctx, cfg, RunDecomposed[V])
	for id, err := range res.Errs {
		if err != nil {
			t.Logf("node %d: %v", id, err)
		}
	}
	return res.Outcomes()
}

func inputMap[V comparable](inputs []V) map[int]V {
	m := make(map[int]V, len(inputs))
	for id, v := range inputs {
		m[id] = v
	}
	return m
}

func TestAllDistinctValuesReachConsensus(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		const n, tFaults = 5, 2
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("value-%d", id)
		}
		outs := runCluster(t, benor.Config[string]{T: tFaults, Inputs: inputs, MaxRounds: 3000, Seed: seed, RNG: sim.NewRNG(seed * 13)})
		if rep := checker.CheckConsensus(outs, inputMap(inputs), true); !rep.Ok() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
	}
}

func TestUnanimousCommitsRoundOne(t *testing.T) {
	const n, tFaults = 7, 3
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = "same"
	}
	outs := runCluster(t, benor.Config[string]{T: tFaults, Inputs: inputs, MaxRounds: 100, Seed: 3, RNG: sim.NewRNG(4)})
	for _, o := range outs {
		if !o.Decided || o.Value != "same" || o.Round != 1 {
			t.Fatalf("convergence violated: %+v", o)
		}
	}
}

func TestToleratesCrashes(t *testing.T) {
	const n, tFaults = 7, 3
	for seed := uint64(0); seed < 5; seed++ {
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("v%d", id%3)
		}
		crashes := []workload.CrashSpec{{Node: 6}, {Node: 5, AfterSends: 4}, {Node: 4, AfterSends: 15}}
		live := runCluster(t, benor.Config[string]{T: tFaults, Inputs: inputs, Crashes: crashes, MaxRounds: 3000, Seed: seed, RNG: sim.NewRNG(seed + 100)})
		if rep := checker.CheckConsensus(live, inputMap(inputs), true); !rep.Ok() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
	}
}

func TestIntValuesWork(t *testing.T) {
	const n, tFaults = 4, 1
	inputs := []int{100, 200, 300, 100}
	outs := runCluster(t, benor.Config[int]{T: tFaults, Inputs: inputs, MaxRounds: 3000, Seed: 11, RNG: sim.NewRNG(11)})
	if rep := checker.CheckConsensus(outs, inputMap(inputs), true); !rep.Ok() {
		t.Fatal(rep)
	}
}

func TestVACSingleRoundProperties(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		const n, tFaults = 5, 2
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed)
		domain := []string{"a", "b", "c"}
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = domain[rng.Intn(len(domain))]
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		outs := make([]checker.ObjectOutcome[string], n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				vac, err := benor.NewMultiVAC[string](nw.Node(id), tFaults)
				if err != nil {
					errs[id] = err
					return
				}
				c, v, err := vac.Propose(ctx, inputs[id], 1)
				outs[id] = checker.ObjectOutcome[string]{Node: id, Conf: c, Value: v}
				errs[id] = err
			}(id)
		}
		wg.Wait()
		cancel()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("seed %d node %d: %v", seed, id, err)
			}
		}
		if rep := checker.CheckVACRound(outs, inputMap(inputs)); !rep.Ok() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
	}
}

// vacillateRound runs round on vac, node 0 of nw proposing mine, after
// peers 1, 2, … have each sent their report from reports and a "?"
// ratify; the values must leave no majority, so the round vacillates.
func vacillateRound(t *testing.T, nw *netsim.Network, vac *benor.VAC[string], round int, mine string, reports ...string) {
	t.Helper()
	for i, v := range reports {
		peer := nw.Node(1 + i)
		if err := errors.Join(peer.Send(0, benor.Report[string]{Round: round, Value: v}),
			peer.Send(0, benor.Ratify[string]{Round: round})); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if conf, _, err := vac.Propose(ctx, mine, round); err != nil || conf != core.Vacillate {
		t.Fatalf("round %d: %v %v, want a vacillation", round, conf, err)
	}
}

// TestVACReportsWhatTheRoundCounted: the VAC's Reports are the values of
// the phase-1 reports its last round counted, once per sender and ordered
// by sender — not in arrival order, and not a report from below the
// round's floor.
func TestVACReportsWhatTheRoundCounted(t *testing.T) {
	nw := netsim.New(3, netsim.WithFIFO())
	vac, err := benor.NewMultiVAC[string](nw.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := vac.Reports(); len(got) != 0 {
		t.Fatalf("reports before any round = %v", got)
	}
	peer := nw.Node(1)
	for _, msg := range []any{
		benor.Report[string]{Round: 0, Value: "z"}, // below the floor
		benor.Report[string]{Round: 1, Value: "y"},
		benor.Report[string]{Round: 1, Value: "z"}, // a duplicate sender
	} {
		if err := peer.Send(0, msg); err != nil {
			t.Fatal(err)
		}
	}
	vacillateRound(t, nw, vac, 1, "x", "y", "w") // peer 1's second "y" is dropped as a duplicate
	if got, want := fmt.Sprint(vac.Reports()), "[x y w]"; got != want {
		t.Fatalf("reports = %s, want %s", got, want)
	}
}

// TestReconciliatorSamplesTheRoundsReports: before any round the sampler
// keeps the processor's own value; after one it draws only the values the
// round's reports carried, each in proportion to its count, and a later
// round's reports replace the earlier ones.
func TestReconciliatorSamplesTheRoundsReports(t *testing.T) {
	nw := netsim.New(5)
	vac, err := benor.NewMultiVAC[string](nw.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewReconciliator[string](vac, sim.NewRNG(5))
	draw := func(k int) map[string]int {
		got := map[string]int{}
		for range k {
			v, err := rec.Reconcile(context.Background(), core.Vacillate, "mine", 1)
			if err != nil {
				t.Fatal(err)
			}
			got[v]++
		}
		return got
	}
	if got := draw(10); got["mine"] != 10 {
		t.Fatalf("drew %v before any round, want only the own value", got)
	}
	vacillateRound(t, nw, vac, 1, "a", "b", "b", "c", "a")
	const k = 5000
	got := draw(k)
	want := map[string]int{"a": 2 * k / 5, "b": 2 * k / 5, "c": k / 5}
	if len(got) != len(want) {
		t.Fatalf("drew %v, want only a, b and c", got)
	}
	for v, w := range want {
		if d := got[v] - w; d < -w/10 || d > w/10 {
			t.Fatalf("drew %v, want about %v: in proportion to the reports", got, want)
		}
	}
	vacillateRound(t, nw, vac, 2, "a", "d", "d", "e", "e")
	if got := draw(1000); len(got) != 3 || got["a"]+got["d"]+got["e"] != 1000 {
		t.Fatalf("drew %v after round 2, want only its reports a, d and e", got)
	}
}

func TestNewVACRejectsBadBounds(t *testing.T) {
	nw := netsim.New(4)
	if _, err := benor.NewMultiVAC[string](nw.Node(0), 2); err == nil {
		t.Fatal("2t >= n accepted")
	}
	if _, err := benor.NewMultiVAC[string](nw.Node(0), -1); err == nil {
		t.Fatal("negative t accepted")
	}
}

func TestLargeDomainManyNodes(t *testing.T) {
	const n, tFaults = 9, 4
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = fmt.Sprintf("candidate-%d", id)
	}
	outs := runCluster(t, benor.Config[string]{T: tFaults, Inputs: inputs, MaxRounds: 10000, Seed: 21, RNG: sim.NewRNG(21)})
	if rep := checker.CheckConsensus(outs, inputMap(inputs), true); !rep.Ok() {
		t.Fatal(rep)
	}
}

// TestVACCountsMultivaluedRounds: the multivalued run attaches the VAC's
// protocol counters to the run's registry, as the binary one does.
func TestVACCountsMultivaluedRounds(t *testing.T) {
	reg := metrics.NewRegistry()
	inputs := []string{"a", "b", "c", "a", "b"}
	runCluster(t, benor.Config[string]{T: 2, Inputs: inputs, MaxRounds: 3000, Seed: 3, RNG: sim.NewRNG(3), Metrics: reg})
	if got := reg.Snapshot().Counters["benor_vac_rounds_total"]; got <= 0 {
		t.Fatalf("benor_vac_rounds_total = %v after a multivalued run, want > 0", got)
	}
}
