package sharedmem

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/sim"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRegisterBasics(t *testing.T) {
	var r Register
	if _, ok := r.Read(); ok {
		t.Fatal("empty register reported written")
	}
	r.Write(7)
	v, ok := r.Read()
	if !ok || v != 7 {
		t.Fatalf("Read = %v %v", v, ok)
	}
	r.Write(8)
	if v, _ := r.Read(); v != 8 {
		t.Fatalf("overwrite failed: %v", v)
	}
}

func TestRegisterWriteOnce(t *testing.T) {
	var r Register
	if !r.WriteOnce(1) {
		t.Fatal("first WriteOnce lost")
	}
	if r.WriteOnce(2) {
		t.Fatal("second WriteOnce won")
	}
	if v, _ := r.Read(); v != 1 {
		t.Fatalf("register holds %v", v)
	}
}

func TestRegisterWriteOnceRace(t *testing.T) {
	// Exactly one of many concurrent WriteOnce calls may win.
	var r Register
	const workers = 16
	wins := make([]bool, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins[i] = r.WriteOnce(i)
		}(i)
	}
	wg.Wait()
	count := 0
	winner := -1
	for i, w := range wins {
		if w {
			count++
			winner = i
		}
	}
	if count != 1 {
		t.Fatalf("%d winners", count)
	}
	if v, _ := r.Read(); v != winner {
		t.Fatalf("register holds %v, winner was %d", v, winner)
	}
}

func TestArraySnapshot(t *testing.T) {
	a := NewArray(3)
	if snap := a.Snapshot(); len(snap) != 0 {
		t.Fatalf("fresh array snapshot %v", snap)
	}
	a.Update(1, "x")
	snap := a.UpdateAndSnapshot(2, "y")
	if len(snap) != 2 || snap[1] != "x" || snap[2] != "y" {
		t.Fatalf("snapshot %v", snap)
	}
	if _, ok := snap[0]; ok {
		t.Fatal("unwritten slot present")
	}
}

func TestArrayPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray(0) did not panic")
		}
	}()
	NewArray(0)
}

// acRound runs one concurrent round of store: processor id proposes
// inputs[id].
func acRound(t *testing.T, store *ACStore, inputs map[int]int, round int) []checker.ObjectOutcome[int] {
	t.Helper()
	outs := make([]checker.ObjectOutcome[int], len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for id, v := range inputs {
		wg.Add(1)
		go func(id, v int) {
			defer wg.Done()
			c, u, err := store.Object(id).Propose(ctxT(t), v, round)
			outs[id] = checker.ObjectOutcome[int]{Node: id, Conf: c, Value: u}
			errs[id] = err
		}(id, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

func TestACStoreProperties(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		rng := sim.NewRNG(seed)
		n := 2 + rng.Intn(7)
		inputs := make(map[int]int, n)
		for id := 0; id < n; id++ {
			inputs[id] = rng.Bit()
		}
		outs := acRound(t, NewACStore(n), inputs, 1)
		if rep := checker.CheckACRound(outs, inputs); !rep.Ok() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
	}
}

func TestACStoreSeparateRoundsIndependent(t *testing.T) {
	// Each round gets fresh arrays: after a contested round 1, a
	// unanimous round 2 must commit.
	store := NewACStore(2)
	contested := map[int]int{0: 0, 1: 1}
	if rep := checker.CheckACRound(acRound(t, store, contested, 1), contested); !rep.Ok() {
		t.Fatalf("round 1: %v", rep)
	}
	for _, o := range acRound(t, store, map[int]int{0: 1, 1: 1}, 2) {
		if o.Conf != core.Commit || o.Value != 1 {
			t.Fatalf("round 2 not fresh: %+v", o)
		}
	}
}

func TestACStoreSequentialSoloCommits(t *testing.T) {
	// A lone processor (others crashed before participating) must commit
	// its own value — wait-freedom.
	store := NewACStore(5)
	c, v, err := store.Object(3).Propose(context.Background(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != core.Commit || v != 1 {
		t.Fatalf("solo propose got (%v, %d)", c, v)
	}
}

func TestACStoreContextCancelled(t *testing.T) {
	store := NewACStore(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := store.Object(0).Propose(ctx, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestConciliatorSoloReturnsOwnValue(t *testing.T) {
	s := NewConciliatorStore(4)
	v, err := s.Object(0, sim.NewRNG(1)).Conciliate(context.Background(), core.Adopt, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("solo conciliate returned %d", v)
	}
}

func TestConciliatorValidityAndAgreementProbability(t *testing.T) {
	// Validity: output is always some invoker's input. Probabilistic
	// agreement: a visible fraction of rounds must end with all
	// processors on the same value even with a full split.
	const n = 6
	agreeing := 0
	const rounds = 200
	rng := sim.NewRNG(9)
	for round := 1; round <= rounds; round++ {
		s := NewConciliatorStore(n)
		outs := make([]int, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				v, err := s.Object(id, rng.Fork(uint64(round*100+id))).Conciliate(ctxT(t), core.Adopt, id%2, round)
				if err != nil {
					t.Error(err)
					return
				}
				outs[id] = v
			}(id)
		}
		wg.Wait()
		same := true
		for _, v := range outs {
			if v != 0 && v != 1 {
				t.Fatalf("validity violated: %d", v)
			}
			if v != outs[0] {
				same = false
			}
		}
		if same {
			agreeing++
		}
	}
	if agreeing == 0 {
		t.Fatal("probabilistic agreement never materialized in 200 rounds")
	}
	t.Logf("conciliator agreement rate: %d/%d", agreeing, rounds)
}

func TestConciliatorContextCancelled(t *testing.T) {
	s := NewConciliatorStore(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Object(0, sim.NewRNG(1)).Conciliate(ctx, core.Adopt, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedMemoryConsensus(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		rng := sim.NewRNG(seed)
		inputs := make([]int, 2+rng.Intn(7))
		for id := range inputs {
			inputs[id] = rng.Bit()
		}
		res := Run(ctxT(t), Config{Inputs: inputs, RNG: rng, MaxRounds: 10000}, NewConsensus(len(inputs)).Run)
		byID := make(map[int]int, len(inputs))
		for id, v := range inputs {
			byID[id] = v
		}
		if rep := checker.CheckConsensus(res.Outcomes(), byID, true); !rep.Ok() {
			t.Fatalf("seed %d: %v (errors %v)", seed, rep, res.Errs)
		}
	}
}

func TestConsensusUnanimousDecidesRoundOne(t *testing.T) {
	const n = 5
	res := Run(ctxT(t), Config{Inputs: []int{1, 1, 1, 1, 1}, RNG: sim.NewRNG(4), MaxRounds: 100}, NewConsensus(n).Run)
	for id, d := range res.Decisions {
		if res.Errs[id] != nil || d != (core.Decision[int]{Value: 1, Round: 1}) {
			t.Fatalf("p%d decided %+v (err %v), convergence demands 1 in round 1", id, d, res.Errs[id])
		}
	}
}

// TestRunForksEachProcessorsCoins: processor id draws from RNG.Fork(id)
// and gets the run's round bound.
func TestRunForksEachProcessorsCoins(t *testing.T) {
	draw := func(_ context.Context, _ int, rng *sim.RNG, _ int, opts ...core.Option) (core.Decision[int], error) {
		return core.Decision[int]{Value: rng.Intn(1 << 30), Round: core.OptionsFrom(opts...).MaxRounds}, nil
	}
	res := Run(ctxT(t), Config{Inputs: make([]int, 4), RNG: sim.NewRNG(7), MaxRounds: 9}, draw)
	for id, d := range res.Decisions {
		if want := sim.NewRNG(7).Fork(uint64(id)).Intn(1 << 30); d != (core.Decision[int]{Value: want, Round: 9}) {
			t.Errorf("p%d got %+v, want RNG.Fork(%d)'s %d and bound 9", id, d, id, want)
		}
	}
}

func TestConsensusRejectsBadID(t *testing.T) {
	cons := NewConsensus(2)
	if _, err := cons.Run(context.Background(), 5, sim.NewRNG(1), 0); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestACStoreQuickUnanimity(t *testing.T) {
	// Property: for any size and any unanimous value, every processor
	// commits that value (convergence), sequentially or concurrently.
	f := func(rawN uint8, bit bool) bool {
		n := 1 + int(rawN)%8
		v := 0
		if bit {
			v = 1
		}
		store := NewACStore(n)
		var wg sync.WaitGroup
		ok := make([]bool, n)
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c, u, err := store.Object(id).Propose(context.Background(), v, 1)
				ok[id] = err == nil && c == core.Commit && u == v
			}(id)
		}
		wg.Wait()
		for _, o := range ok {
			if !o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
