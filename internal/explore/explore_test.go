package explore

import (
	"context"
	"sync"
	"testing"
	"time"

	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

func TestSweepMergesAllSeeds(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64]bool{}
	rep, err := Sweep(context.Background(), func(_ context.Context, seed uint64) checker.Report {
		mu.Lock()
		seen[seed] = true
		mu.Unlock()
		return checker.Report{Runs: 1}
	}, Options{Seeds: 25, FirstSeed: 100, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 25 || !rep.Ok() {
		t.Fatalf("report = %v", rep)
	}
	for s := uint64(100); s < 125; s++ {
		if !seen[s] {
			t.Fatalf("seed %d never ran", s)
		}
	}
}

func TestSweepStopOnViolation(t *testing.T) {
	rep, err := Sweep(context.Background(), func(_ context.Context, seed uint64) checker.Report {
		var r checker.Report
		r.Runs = 1
		if seed == 3 {
			r.Add("agreement", "seeded failure")
		}
		time.Sleep(time.Millisecond)
		return r
	}, Options{Seeds: 1000, Parallelism: 2, StopOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("violation not surfaced")
	}
	if rep.Runs >= 1000 {
		t.Fatalf("sweep did not stop early: %d runs", rep.Runs)
	}
}

func TestSweepRejectsBadOptions(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, Options{Seeds: 0}); err == nil {
		t.Fatal("Seeds=0 accepted")
	}
}

func TestSweepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, func(context.Context, uint64) checker.Report {
		return checker.Report{Runs: 1}
	}, Options{Seeds: 10})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
}

// benOrScenario is the canonical use: one fully checked Ben-Or run per
// seed, with inputs, crash plan, and delivery order all derived from the
// seed.
func benOrScenario(n int) Scenario {
	return func(ctx context.Context, seed uint64) checker.Report {
		tFaults := (n - 1) / 2
		rng := sim.NewRNG(seed)
		inputs := workload.BinaryInputs(workload.SplitRandom, n, rng)
		crashes := workload.CrashPlan(n, int(seed)%(tFaults+1), rng)
		runCtx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		res := benor.Run(runCtx, benor.Config[int]{T: tFaults, Inputs: inputs, Crashes: crashes,
			MaxRounds: 3000, Seed: seed, RNG: rng}, benor.RunDecomposed)
		return checker.CheckConsensus(res.Outcomes(), workload.InputsToMap(inputs), len(crashes) == 0)
	}
}

func TestBenOrScheduleSweep(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	rep, err := Sweep(context.Background(), benOrScenario(5), Options{Seeds: seeds, StopOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("safety violated in sweep: %v", rep)
	}
	if rep.Runs != seeds {
		t.Fatalf("ran %d/%d seeds", rep.Runs, seeds)
	}
}
