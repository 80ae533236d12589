// Command oocsim runs one consensus configuration on the in-memory
// simulator and prints every processor's decision plus run statistics.
//
// Usage:
//
//	oocsim -protocol benor -n 5 -crashes 2 -split half -seed 7
//	oocsim -protocol phaseking -n 7 -byzantine 2 -adversary equivocate
//	oocsim -protocol raft -n 5 -crash-leader
//	oocsim -protocol multivalue -n 7 -crashes 2
//	oocsim -protocol sharedmem -n 8 -split half
//
// Pass -dump to print the full message-level trace after the run,
// -trace-out FILE to save it as a timestamped JSON trace file (which
// cmd/ooctrace can inspect), and -telemetry ADDR to serve /metrics and
// /debug/pprof while the run executes (the final metrics snapshot is
// also printed on exit).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ooc/internal/benor"
	"ooc/internal/metrics"
	"ooc/internal/multivalue"
	"ooc/internal/phaseking"
	"ooc/internal/raft"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

func main() {
	var (
		protocol    = flag.String("protocol", "benor", "benor | phaseking | raft | multivalue | sharedmem")
		n           = flag.Int("n", 5, "number of processors")
		seed        = flag.Uint64("seed", 1, "random seed")
		split       = flag.String("split", "half", "unanimous0 | unanimous1 | half | dissent | random")
		crashes     = flag.Int("crashes", 0, "benor: processors to crash")
		byzantine   = flag.Int("byzantine", 0, "phaseking: Byzantine processor count")
		adversary   = flag.String("adversary", "silent", "phaseking: silent | equivocate | garbage | random")
		rule        = flag.String("rule", "final", "phaseking: first | final decision rule")
		crashLeader = flag.Bool("crash-leader", false, "raft: crash the first elected leader")
		maxRounds   = flag.Int("max-rounds", 2000, "round bound for the asynchronous protocols")
		dump        = flag.Bool("dump", false, "print the message-level trace after the run")
		traceOut    = flag.String("trace-out", "", "write the trace as a timestamped JSON file (inspect with ooctrace)")
		telemetry   = flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address during the run")
	)
	flag.Parse()
	dumpTrace = *dump
	traceOutPath = *traceOut
	if *telemetry != "" {
		metReg = metrics.NewRegistry()
		srv, err := metrics.Serve(*telemetry, metReg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oocsim: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
	}
	if err := run(*protocol, *n, *seed, *split, *crashes, *byzantine, *adversary, *rule, *crashLeader, *maxRounds); err != nil {
		fmt.Fprintf(os.Stderr, "oocsim: %v\n", err)
		os.Exit(1)
	}
	if metReg != nil {
		fmt.Println("metrics:")
		if err := metReg.Snapshot().WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		}
	}
	if traceOutFailed {
		os.Exit(1)
	}
}

// dumpTrace controls whether runs print their full trace; traceOutPath,
// when set, saves the trace as a JSON file; metReg, when non-nil,
// receives every run's telemetry.
var (
	dumpTrace      bool
	traceOutPath   string
	traceOutFailed bool
	metReg         *metrics.Registry
)

// newRecorder builds the run's recorder: timestamped when the trace is
// being saved for timeline inspection, plain (cheaper) otherwise.
func newRecorder() *trace.Recorder {
	if traceOutPath != "" {
		return trace.NewTimedRecorder()
	}
	return trace.NewRecorder()
}

// finishTrace prints stats and, with -dump, the event log; with
// -trace-out it also saves the JSON trace file.
func finishTrace(rec *trace.Recorder) {
	tr := rec.Snapshot()
	fmt.Printf("stats: %v\n", trace.Summarize(tr))
	if dumpTrace {
		fmt.Println("trace:")
		if err := trace.Dump(os.Stdout, tr); err != nil {
			fmt.Fprintf(os.Stderr, "dump: %v\n", err)
		}
	}
	if traceOutPath != "" {
		f, err := os.Create(traceOutPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			traceOutFailed = true
			return
		}
		defer f.Close()
		if err := trace.WriteJSON(f, tr); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			traceOutFailed = true
			return
		}
		fmt.Printf("trace saved to %s (%d events)\n", traceOutPath, len(tr.Events))
	}
}

func parseSplit(s string) (workload.Split, error) {
	switch s {
	case "unanimous0":
		return workload.SplitUnanimous0, nil
	case "unanimous1":
		return workload.SplitUnanimous1, nil
	case "half":
		return workload.SplitHalf, nil
	case "dissent":
		return workload.SplitOneDissent, nil
	case "random":
		return workload.SplitRandom, nil
	default:
		return 0, fmt.Errorf("unknown split %q", s)
	}
}

func run(protocol string, n int, seed uint64, splitName string, crashes, byzantine int, adversary, rule string, crashLeader bool, maxRounds int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	switch protocol {
	case "benor":
		return runBenOr(ctx, n, seed, splitName, crashes, maxRounds)
	case "phaseking":
		return runPhaseKing(ctx, n, seed, splitName, byzantine, adversary, rule)
	case "raft":
		return runRaft(ctx, n, seed, crashLeader)
	case "multivalue":
		return runMultivalue(ctx, n, seed, crashes, maxRounds)
	case "sharedmem":
		return runSharedMem(ctx, n, seed, splitName, maxRounds)
	default:
		return fmt.Errorf("unknown protocol %q", protocol)
	}
}

func runBenOr(ctx context.Context, n int, seed uint64, splitName string, crashes, maxRounds int) error {
	split, err := parseSplit(splitName)
	if err != nil {
		return err
	}
	tFaults := (n - 1) / 2
	if crashes > tFaults {
		return fmt.Errorf("%d crashes exceed tolerance t=%d", crashes, tFaults)
	}
	rng := sim.NewRNG(seed)
	inputs := workload.BinaryInputs(split, n, rng)
	cfg := benor.Config[int]{T: tFaults, Inputs: inputs, Crashes: workload.CrashPlan(n, crashes, rng),
		MaxRounds: maxRounds, Seed: seed, RNG: rng, Recorder: newRecorder(), Metrics: metReg}
	printCrashes(cfg.Crashes)
	res := benor.Run(ctx, cfg, benor.RunDecomposed)
	fmt.Printf("ben-or: n=%d t=%d split=%v inputs=%v\n", n, tFaults, split, inputs)
	for id, d := range res.Decisions {
		if res.Errs[id] != nil {
			fmt.Printf("  p%d: error: %v\n", id, res.Errs[id])
			continue
		}
		fmt.Printf("  p%d: decided %d in round %d\n", id, d.Value, d.Round)
	}
	finishTrace(cfg.Recorder)
	return nil
}

// printCrashes announces a crash plan before the run carries it out.
func printCrashes(plan []workload.CrashSpec) {
	for _, spec := range plan {
		fmt.Printf("injecting crash: node %d after %d sends\n", spec.Node, spec.AfterSends)
	}
}

func runPhaseKing(ctx context.Context, n int, seed uint64, splitName string, byzantine int, adversary, rule string) error {
	split, err := parseSplit(splitName)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	inputs := workload.BinaryInputs(split, n, rng)
	byz := map[int]phaseking.Adversary{}
	for id := 0; id < byzantine; id++ {
		switch adversary {
		case "silent":
			byz[id] = phaseking.SilentAdversary{}
		case "equivocate":
			byz[id] = phaseking.EquivocateAdversary{}
		case "garbage":
			byz[id] = phaseking.GarbageAdversary{}
		case "random":
			byz[id] = &phaseking.RandomAdversary{RNG: rng.Fork(uint64(id))}
		default:
			return fmt.Errorf("unknown adversary %q", adversary)
		}
	}
	decRule := phaseking.RuleFinalValue
	if rule == "first" {
		decRule = phaseking.RuleFirstCommit
	}
	rec := newRecorder()
	byzIDs := make([]int, 0, len(byz))
	for id := range byz {
		byzIDs = append(byzIDs, id)
	}
	cfg := phaseking.Config{
		N: n, T: (n - 1) / 3,
		Inputs:    workload.InputsToMap(inputs, byzIDs...),
		Byzantine: byz,
		Rule:      decRule,
		Recorder:  rec,
		Metrics:   metReg,
	}
	res, err := phaseking.Run(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("phase-king: n=%d t=%d byzantine=%d adversary=%s rule=%s inputs=%v\n",
		n, cfg.T, byzantine, adversary, rule, inputs)
	ids := make([]int, 0, len(res.Decisions))
	for id := range res.Decisions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := res.Decisions[id]
		fmt.Printf("  p%d: decided %d in round %d\n", id, d.Value, d.Round)
	}
	for id, err := range res.Errs {
		fmt.Printf("  p%d: error: %v\n", id, err)
	}
	fmt.Printf("agreement: %v\n", res.AgreementHolds())
	finishTrace(rec)
	return nil
}

func runRaft(ctx context.Context, n int, seed uint64, crashLeader bool) error {
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = fmt.Sprintf("value-of-p%d", id)
	}
	cfg := raft.RunConfig[string]{Inputs: inputs, Seed: seed, ElectionTimeout: 50 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond, CrashLeader: crashLeader, Recorder: newRecorder(), Metrics: metReg}
	start := time.Now()
	res := raft.Run(ctx, cfg, raft.Decree[string]{})
	fmt.Printf("raft single-decree: n=%d crash-leader=%v elapsed=%v\n", n, crashLeader, time.Since(start).Round(time.Millisecond))
	for id, d := range res.Decisions {
		switch {
		case res.Crashed[id]:
			fmt.Printf("  p%d: crashed as the first leader\n", id)
		case res.Errs[id] != nil:
			fmt.Printf("  p%d: error: %v\n", id, res.Errs[id])
		default:
			fmt.Printf("  p%d: decided %v (term %d)\n", id, d.Value, d.Round)
		}
	}
	finishTrace(cfg.Recorder)
	return nil
}

func runMultivalue(ctx context.Context, n int, seed uint64, crashes, maxRounds int) error {
	tFaults := (n - 1) / 2
	if crashes > tFaults {
		return fmt.Errorf("%d crashes exceed tolerance t=%d", crashes, tFaults)
	}
	rng := sim.NewRNG(seed)
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = fmt.Sprintf("candidate-%d", id)
	}
	cfg := benor.Config[string]{T: tFaults, Inputs: inputs, Crashes: workload.CrashPlan(n, crashes, rng),
		MaxRounds: maxRounds * 10, Seed: seed, RNG: rng, Recorder: newRecorder(), Metrics: metReg}
	printCrashes(cfg.Crashes)
	res := benor.Run(ctx, cfg, multivalue.RunDecomposed[string])
	fmt.Printf("multivalue: n=%d t=%d inputs=%v\n", n, tFaults, inputs)
	for id, d := range res.Decisions {
		if res.Errs[id] != nil {
			fmt.Printf("  p%d: error: %v\n", id, res.Errs[id])
			continue
		}
		fmt.Printf("  p%d: decided %q in round %d\n", id, d.Value, d.Round)
	}
	finishTrace(cfg.Recorder)
	return nil
}

func runSharedMem(ctx context.Context, n int, seed uint64, splitName string, maxRounds int) error {
	split, err := parseSplit(splitName)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	inputs := workload.BinaryInputs(split, n, rng)
	res := sharedmem.Run(ctx, sharedmem.Config{Inputs: inputs, RNG: rng, MaxRounds: maxRounds * 10}, sharedmem.NewConsensus(n).Run)
	fmt.Printf("shared-memory: n=%d split=%v inputs=%v\n", n, split, inputs)
	for id, d := range res.Decisions {
		if res.Errs[id] != nil {
			fmt.Printf("  p%d: error: %v\n", id, res.Errs[id])
			continue
		}
		fmt.Printf("  p%d: decided %d in round %d\n", id, d.Value, d.Round)
	}
	return nil
}
