package adapters

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/netsim"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// acResult is one processor's AC output in a concurrent round.
type acResult struct {
	conf core.Confidence
	val  int
	err  error
}

// concurrentACRound invokes obj(id).Propose(inputs[id], round) on n
// goroutines and returns the outcomes.
func concurrentACRound(t *testing.T, n int, obj func(id int) core.AdoptCommit[int], inputs []int, round int) []acResult {
	t.Helper()
	outs := make([]acResult, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, v, err := obj(id).Propose(ctxT(t), inputs[id], round)
			outs[id] = acResult{conf: c, val: v, err: err}
		}(id)
	}
	wg.Wait()
	return outs
}

// checkACProperties asserts coherence, convergence, and validity of a set
// of adopt-commit outcomes.
func checkACProperties(t *testing.T, outs []acResult, inputs []int) {
	t.Helper()
	isInput := func(v int) bool {
		for _, in := range inputs {
			if in == v {
				return true
			}
		}
		return false
	}
	commitVal, sawCommit := 0, false
	for id, o := range outs {
		if o.err != nil {
			t.Fatalf("processor %d: %v", id, o.err)
		}
		if o.conf != core.Adopt && o.conf != core.Commit {
			t.Fatalf("processor %d: AC returned %v", id, o.conf)
		}
		if !isInput(o.val) {
			t.Fatalf("validity: processor %d returned %d, inputs %v", id, o.val, inputs)
		}
		if o.conf == core.Commit {
			if sawCommit && o.val != commitVal {
				t.Fatalf("two commits with values %d and %d", o.val, commitVal)
			}
			sawCommit, commitVal = true, o.val
		}
	}
	if sawCommit {
		for id, o := range outs {
			if o.val != commitVal {
				t.Fatalf("coherence: processor %d carries %d, committed %d", id, o.val, commitVal)
			}
		}
	}
	unanimous := true
	for _, in := range inputs {
		if in != inputs[0] {
			unanimous = false
		}
	}
	if unanimous {
		for id, o := range outs {
			if o.conf != core.Commit || o.val != inputs[0] {
				t.Fatalf("convergence: processor %d got (%v, %d) on unanimous %d", id, o.conf, o.val, inputs[0])
			}
		}
	}
}

// vacResult is one processor's VAC output.
type vacResult struct {
	conf core.Confidence
	val  int
	err  error
}

// checkVACProperties asserts the paper's VAC guarantees.
func checkVACProperties(t *testing.T, outs []vacResult, inputs []int) {
	t.Helper()
	isInput := func(v int) bool {
		for _, in := range inputs {
			if in == v {
				return true
			}
		}
		return false
	}
	var (
		sawCommit, sawAdopt bool
		commitVal, adoptVal int
		unanimous           = true
	)
	for _, in := range inputs {
		if in != inputs[0] {
			unanimous = false
		}
	}
	for id, o := range outs {
		if o.err != nil {
			t.Fatalf("processor %d: %v", id, o.err)
		}
		if !o.conf.Valid() {
			t.Fatalf("processor %d: invalid confidence %v", id, o.conf)
		}
		if !isInput(o.val) {
			t.Fatalf("validity: processor %d returned %d, inputs %v", id, o.val, inputs)
		}
		switch o.conf {
		case core.Commit:
			if sawCommit && o.val != commitVal {
				t.Fatalf("two commits: %d and %d", o.val, commitVal)
			}
			sawCommit, commitVal = true, o.val
		case core.Adopt:
			if sawAdopt && o.val != adoptVal {
				t.Fatalf("two adopts: %d and %d", o.val, adoptVal)
			}
			sawAdopt, adoptVal = true, o.val
		}
	}
	if sawCommit {
		for id, o := range outs {
			if o.conf == core.Vacillate {
				t.Fatalf("coherence A&C: processor %d vacillates beside a commit", id)
			}
			if o.val != commitVal {
				t.Fatalf("coherence A&C: processor %d carries %d, committed %d", id, o.val, commitVal)
			}
		}
	}
	if sawCommit && sawAdopt && commitVal != adoptVal {
		t.Fatalf("adopt value %d != commit value %d", adoptVal, commitVal)
	}
	if unanimous {
		for id, o := range outs {
			if o.conf != core.Commit || o.val != inputs[0] {
				t.Fatalf("convergence: processor %d got (%v, %d)", id, o.conf, o.val)
			}
		}
	}
}

func TestVACFromACsProperties(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := sim.NewRNG(seed + 1000)
		n := 2 + rng.Intn(7)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Bit()
		}
		store1 := sharedmem.NewACStore(n)
		store2 := sharedmem.NewACStore(n)
		outs := make([]vacResult, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				vac := NewVACFromACs[int](store1.Object(id), store2.Object(id))
				c, v, err := vac.Propose(ctxT(t), inputs[id], 1)
				outs[id] = vacResult{conf: c, val: v, err: err}
			}(id)
		}
		wg.Wait()
		checkVACProperties(t, outs, inputs)
	}
}

func TestVACFromACsRejectsVacillatingAC(t *testing.T) {
	bad := core.ACFunc[int](func(_ context.Context, v int, _ int) (core.Confidence, int, error) {
		return core.Vacillate, v, nil
	})
	good := core.ACFunc[int](func(_ context.Context, v int, _ int) (core.Confidence, int, error) {
		return core.Adopt, v, nil
	})
	vac := NewVACFromACs[int](bad, good)
	if _, _, err := vac.Propose(context.Background(), 1, 1); !errors.Is(err, core.ErrContractViolation) {
		t.Fatalf("err = %v", err)
	}
	vac = NewVACFromACs[int](good, bad)
	if _, _, err := vac.Propose(context.Background(), 1, 1); !errors.Is(err, core.ErrContractViolation) {
		t.Fatalf("err = %v", err)
	}
}

func TestVACFromACsConsensusUnderTemplate(t *testing.T) {
	// Full circle: a consensus built from two shared-memory ACs per round
	// plus a coin-flip reconciliator, under the paper's Algorithm 1.
	for seed := uint64(0); seed < 10; seed++ {
		rng := sim.NewRNG(seed)
		n := 3 + int(seed)%4
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Bit()
		}
		store1 := sharedmem.NewACStore(n)
		store2 := sharedmem.NewACStore(n)
		proc := func(ctx context.Context, id int, rng *sim.RNG, v int, opts ...core.Option) (core.Decision[int], error) {
			vac := NewVACFromACs[int](store1.Object(id), store2.Object(id))
			return core.RunVAC[int](ctx, vac, benor.NewReconciliator(rng), v, opts...)
		}
		res := sharedmem.Run(ctxT(t), sharedmem.Config{Inputs: inputs, RNG: rng, MaxRounds: 500}, proc)
		if rep := checker.CheckConsensus(res.Outcomes(), workload.InputsToMap(inputs), true); !rep.Ok() {
			t.Fatalf("seed %d: %v (errors %v)", seed, rep, res.Errs)
		}
	}
}

func TestACFromVACProperties(t *testing.T) {
	// Wrap Ben-Or's message-passing VAC as an AC and check AC guarantees
	// hold across adversarial schedules.
	for seed := uint64(0); seed < 15; seed++ {
		const n, tFaults = 5, 2
		rng := sim.NewRNG(seed + 77)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Bit()
		}
		nw := netsim.New(n, netsim.WithSeed(seed))
		outs := concurrentACRound(t, n, func(id int) core.AdoptCommit[int] {
			vac, err := benor.NewVAC(nw.Node(id), tFaults)
			if err != nil {
				t.Error(err)
				return nil
			}
			return NewACFromVAC[int](vac)
		}, inputs, 1)
		checkACProperties(t, outs, inputs)
	}
}

func TestACFromVACPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	vac := core.VACFunc[int](func(_ context.Context, v int, _ int) (core.Confidence, int, error) {
		return 0, 0, boom
	})
	ac := NewACFromVAC[int](vac)
	if _, _, err := ac.Propose(context.Background(), 1, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
