package benor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// result is one processor's outcome in a cluster run.
type result struct {
	id       int
	decision core.Decision[int]
	err      error
}

// runCluster executes fn for every processor concurrently and returns the
// per-processor results. fn is typically RunDecomposed or RunMonolithic.
func runCluster(
	t *testing.T,
	n int,
	fn func(ctx context.Context, id int) (core.Decision[int], error),
) []result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([]result, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d, err := fn(ctx, id)
			results[id] = result{id: id, decision: d, err: err}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(35 * time.Second):
		t.Fatal("cluster run deadlocked")
	}
	return results
}

// checkAgreementValidity asserts consensus safety over the successful
// results: all decided the same value, and that value was proposed.
func checkAgreementValidity(t *testing.T, results []result, inputs []int) int {
	t.Helper()
	decided := -1
	count := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		count++
		if decided == -1 {
			decided = r.decision.Value
		} else if r.decision.Value != decided {
			t.Fatalf("agreement violated: node %d decided %d, others %d", r.id, r.decision.Value, decided)
		}
	}
	if count == 0 {
		t.Fatal("no processor decided")
	}
	valid := false
	for _, in := range inputs {
		if in == decided {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("validity violated: decided %d, inputs %v", decided, inputs)
	}
	return decided
}

func TestDecomposedAllSameInputCommitsRoundOne(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		tFaults := (n - 1) / 2
		nw := netsim.New(n, netsim.WithSeed(uint64(n)))
		rng := sim.NewRNG(99)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = 1
		}
		results := runCluster(t, n, func(ctx context.Context, id int) (core.Decision[int], error) {
			return RunDecomposed(ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
				core.WithMaxRounds(50))
		})
		v := checkAgreementValidity(t, results, inputs)
		if v != 1 {
			t.Fatalf("n=%d: decided %d with unanimous input 1", n, v)
		}
		for _, r := range results {
			if r.err != nil {
				t.Fatalf("n=%d node %d: %v", n, r.id, r.err)
			}
			if r.decision.Round != 1 {
				t.Fatalf("n=%d node %d decided in round %d, convergence demands round 1", n, r.id, r.decision.Round)
			}
		}
	}
}

func TestDecomposedSplitInputsReachConsensus(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		n := 5
		tFaults := 2
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed * 31)
		inputs := []int{0, 1, 0, 1, 0}
		results := runCluster(t, n, func(ctx context.Context, id int) (core.Decision[int], error) {
			return RunDecomposed(ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
				core.WithMaxRounds(200))
		})
		checkAgreementValidity(t, results, inputs)
		for _, r := range results {
			if r.err != nil {
				t.Fatalf("seed %d node %d: %v", seed, r.id, r.err)
			}
		}
	}
}

func TestDecomposedToleratesCrashes(t *testing.T) {
	const n, tFaults = 7, 3
	for seed := uint64(0); seed < 5; seed++ {
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed)
		inputs := []int{0, 1, 0, 1, 0, 1, 0}
		// Crash 3 processors: one immediately, one after 5 sends (mid
		// first broadcast), one after 20 sends.
		nw.Crash(6)
		nw.CrashAfterSends(5, 5)
		nw.CrashAfterSends(4, 20)
		results := runCluster(t, n, func(ctx context.Context, id int) (core.Decision[int], error) {
			return RunDecomposed(ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
				core.WithMaxRounds(300))
		})
		live := results[:4]
		for _, r := range live {
			if r.err != nil {
				t.Fatalf("seed %d: live node %d failed: %v", seed, r.id, r.err)
			}
		}
		checkAgreementValidity(t, live, inputs)
	}
}

func TestMonolithicMatchesDecomposedSafety(t *testing.T) {
	const n, tFaults = 5, 2
	inputs := []int{1, 0, 1, 0, 1}
	for seed := uint64(0); seed < 6; seed++ {
		nwM := netsim.New(n, netsim.WithSeed(seed))
		rngM := sim.NewRNG(seed)
		mono := runCluster(t, n, func(ctx context.Context, id int) (core.Decision[int], error) {
			return RunMonolithic(ctx, nwM.Node(id), rngM.Fork(uint64(id)), tFaults, inputs[id], 200, nil)
		})
		checkAgreementValidity(t, mono, inputs)

		nwD := netsim.New(n, netsim.WithSeed(seed))
		rngD := sim.NewRNG(seed)
		dec := runCluster(t, n, func(ctx context.Context, id int) (core.Decision[int], error) {
			return RunDecomposed(ctx, nwD.Node(id), rngD.Fork(uint64(id)), tFaults, inputs[id],
				core.WithMaxRounds(200))
		})
		checkAgreementValidity(t, dec, inputs)
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
	if _, err := RunMonolithic(context.Background(), nw.Node(0), rng, 2, 0, 10, nil); err == nil {
		t.Fatal("t=2, n=4 accepted")
	}
	if _, err := RunMonolithic(context.Background(), nw.Node(0), rng, 1, 5, 10, nil); err == nil {
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
func oneVACRound(t *testing.T, n, tFaults int, inputs []int, seed uint64) []vacOutcome {
	t.Helper()
	nw := netsim.New(n, netsim.WithSeed(seed))
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
	// network duplicates every message.
	const n, tFaults = 5, 2
	nw := netsim.New(n, netsim.WithSeed(3), netsim.WithDupRate(1))
	rng := sim.NewRNG(17)
	inputs := []int{1, 1, 1, 1, 1}
	results := runCluster(t, n, func(ctx context.Context, id int) (core.Decision[int], error) {
		return RunDecomposed(ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
			core.WithMaxRounds(50))
	})
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", r.id, r.err)
		}
		if r.decision.Value != 1 {
			t.Fatalf("node %d decided %d", r.id, r.decision.Value)
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
