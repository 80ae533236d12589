// Command oocexplore sweeps a protocol's schedule space: it runs many
// seeded trials in parallel (each seed fixes the adversarial delivery
// order, input split, and crash timing) and reports aggregated safety
// results. A randomized stand-in for model checking.
//
// Usage:
//
//	oocexplore -protocol benor -n 5 -seeds 500
//	oocexplore -protocol multivalue -n 7 -seeds 200 -parallelism 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/explore"
	"ooc/internal/multivalue"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

func main() {
	var (
		protocol    = flag.String("protocol", "benor", "benor | multivalue")
		n           = flag.Int("n", 5, "number of processors")
		seeds       = flag.Int("seeds", 200, "number of seeded schedules to explore")
		firstSeed   = flag.Uint64("first-seed", 0, "first seed of the range")
		parallelism = flag.Int("parallelism", 0, "concurrent trials (0 = GOMAXPROCS)")
		stopEarly   = flag.Bool("stop-on-violation", true, "abort at the first violated schedule")
	)
	flag.Parse()
	if err := run(*protocol, *n, *seeds, *firstSeed, *parallelism, *stopEarly); err != nil {
		fmt.Fprintf(os.Stderr, "oocexplore: %v\n", err)
		os.Exit(1)
	}
}

func run(protocol string, n, seeds int, firstSeed uint64, parallelism int, stopEarly bool) error {
	var scenario explore.Scenario
	switch protocol {
	case "benor":
		scenario = benOrScenario(n)
	case "multivalue":
		scenario = multivalueScenario(n)
	default:
		return fmt.Errorf("unknown protocol %q", protocol)
	}
	start := time.Now()
	rep, err := explore.Sweep(context.Background(), scenario, explore.Options{
		Seeds:           seeds,
		FirstSeed:       firstSeed,
		Parallelism:     parallelism,
		StopOnViolation: stopEarly,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s n=%d: explored %d schedules in %v: %v\n",
		protocol, n, rep.Runs, time.Since(start).Round(time.Millisecond), rep.String())
	for i, v := range rep.Violations {
		fmt.Printf("  violation %d: %v\n", i+1, v)
		if i == 9 {
			fmt.Printf("  ... and %d more\n", len(rep.Violations)-10)
			break
		}
	}
	if !rep.Ok() {
		return fmt.Errorf("%d safety violations", len(rep.Violations))
	}
	return nil
}

// benOrScenario: seeded Ben-Or with random split and a seed-derived crash
// plan.
func benOrScenario(n int) explore.Scenario {
	tFaults := (n - 1) / 2
	return func(ctx context.Context, seed uint64) checker.Report {
		rng := sim.NewRNG(seed)
		inputs := workload.BinaryInputs(workload.SplitRandom, n, rng)
		crashes := workload.CrashPlan(n, int(seed)%(tFaults+1), rng)
		runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		res := benor.Run(runCtx, benor.Config[int]{T: tFaults, Inputs: inputs, Crashes: crashes,
			MaxRounds: 5000, Seed: seed, RNG: rng}, benor.RunDecomposed)
		return checker.CheckConsensus(res.Outcomes(), workload.InputsToMap(inputs), len(crashes) == 0)
	}
}

// multivalueScenario: seeded multivalued consensus over a 3-value domain.
func multivalueScenario(n int) explore.Scenario {
	tFaults := (n - 1) / 2
	return func(ctx context.Context, seed uint64) checker.Report {
		rng := sim.NewRNG(seed)
		inputs := make([]string, n)
		inputMap := make(map[int]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("v%d", rng.Intn(3))
			inputMap[id] = inputs[id]
		}
		runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		res := benor.Run(runCtx, benor.Config[string]{T: tFaults, Inputs: inputs,
			MaxRounds: 20000, Seed: seed, RNG: rng}, multivalue.RunDecomposed[string])
		return checker.CheckConsensus(res.Outcomes(), inputMap, true)
	}
}
