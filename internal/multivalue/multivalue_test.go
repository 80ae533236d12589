package multivalue

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

func runCluster[V comparable](
	t *testing.T,
	nw *netsim.Network,
	tFaults int,
	inputs []V,
	rng *sim.RNG,
	maxRounds int,
) []checker.RunOutcome[V] {
	t.Helper()
	n := len(inputs)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	outs := make([]checker.RunOutcome[V], n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d, err := RunDecomposed[V](ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
				core.WithMaxRounds(maxRounds))
			if err == nil {
				outs[id] = checker.RunOutcome[V]{Node: id, Decided: true, Value: d.Value, Round: d.Round}
			} else {
				t.Logf("node %d: %v", id, err)
				outs[id] = checker.RunOutcome[V]{Node: id}
			}
		}(id)
	}
	wg.Wait()
	return outs
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
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed * 13)
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("value-%d", id)
		}
		outs := runCluster(t, nw, tFaults, inputs, rng, 3000)
		if rep := checker.CheckConsensus(outs, inputMap(inputs), true); !rep.Ok() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
	}
}

func TestUnanimousCommitsRoundOne(t *testing.T) {
	const n, tFaults = 7, 3
	nw := netsim.New(n, netsim.WithSeed(3))
	rng := sim.NewRNG(4)
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = "same"
	}
	outs := runCluster(t, nw, tFaults, inputs, rng, 100)
	for _, o := range outs {
		if !o.Decided || o.Value != "same" || o.Round != 1 {
			t.Fatalf("convergence violated: %+v", o)
		}
	}
}

func TestToleratesCrashes(t *testing.T) {
	const n, tFaults = 7, 3
	for seed := uint64(0); seed < 5; seed++ {
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed + 100)
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("v%d", id%3)
		}
		nw.Crash(6)
		nw.CrashAfterSends(5, 4)
		nw.CrashAfterSends(4, 15)
		outs := runCluster(t, nw, tFaults, inputs, rng, 3000)
		var live []checker.RunOutcome[string]
		for _, o := range outs {
			if o.Node < 4 {
				if !o.Decided {
					t.Fatalf("seed %d: live node %d undecided", seed, o.Node)
				}
				live = append(live, o)
			}
		}
		if rep := checker.CheckConsensus(live, inputMap(inputs), true); !rep.Ok() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
	}
}

func TestIntValuesWork(t *testing.T) {
	const n, tFaults = 4, 1
	nw := netsim.New(n, netsim.WithSeed(11))
	rng := sim.NewRNG(11)
	inputs := []int{100, 200, 300, 100}
	outs := runCluster(t, nw, tFaults, inputs, rng, 3000)
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

// TestSeenSetAccumulatesAndDedupes: the VAC's seen record holds every
// value it proposed or absorbed, once each, in first-seen order,
// including values from rounds below its floor and from valued ratifies.
func TestSeenSetAccumulatesAndDedupes(t *testing.T) {
	nw := netsim.New(2, netsim.WithFIFO())
	vac, err := benor.NewMultiVAC[string](nw.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if seen := vac.Seen(); len(seen) != 0 {
		t.Fatalf("seen before any round = %v", seen)
	}
	peer := nw.Node(1)
	for _, msg := range []any{
		benor.Report[string]{Round: 0, Value: "z"}, // below the floor
		benor.Report[string]{Round: 1, Value: "y"},
		benor.Report[string]{Round: 1, Value: "z"}, // a duplicate sender
		benor.Ratify[string]{Round: 1, Value: "w", HasValue: true},
	} {
		if err := peer.Send(0, msg); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := vac.Propose(ctx, "x", 1); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(vac.Seen()), "[x z y w]"; got != want {
		t.Fatalf("seen = %s, want %s", got, want)
	}
}

// TestReconciliatorSamplesOnlySeenValues: before any round the sampler
// falls back to the processor's own value; after one it draws only
// values its VAC has seen.
func TestReconciliatorSamplesOnlySeenValues(t *testing.T) {
	nw := netsim.New(2)
	vac, err := benor.NewMultiVAC[string](nw.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	rec := NewReconciliator[string](vac, rng)
	// Nothing seen: falls back to own value.
	v, err := rec.Reconcile(context.Background(), core.Vacillate, "mine", 1)
	if err != nil || v != "mine" {
		t.Fatalf("empty-set reconcile = %q %v", v, err)
	}
	// One round in which the peer reports "b" and asks "?".
	peer := nw.Node(1)
	if err := peer.Send(0, benor.Report[string]{Round: 1, Value: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := peer.Send(0, benor.Ratify[string]{Round: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := vac.Propose(ctx, "a", 1); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 100; i++ {
		v, err := rec.Reconcile(context.Background(), core.Vacillate, "mine", 1)
		if err != nil {
			t.Fatal(err)
		}
		got[v] = true
	}
	if !got["a"] || !got["b"] || len(got) != 2 {
		t.Fatalf("sampled %v, want exactly {a,b}", got)
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
	nw := netsim.New(n, netsim.WithSeed(21))
	rng := sim.NewRNG(21)
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = fmt.Sprintf("candidate-%d", id)
	}
	outs := runCluster(t, nw, tFaults, inputs, rng, 10000)
	if rep := checker.CheckConsensus(outs, inputMap(inputs), true); !rep.Ok() {
		t.Fatal(rep)
	}
}
