// Command benchmark is the repo's performance ledger: five named
// workloads against an in-process 3-node cluster in its default
// configuration, three end-to-end metrics measured with tracing off and
// scaled by a yardstick of the host's speed, and a per-layer budget
// measured in a separate traced pass plus microbenches.
// BENCHMARK.json at the repo root describes it; README.md here explains
// the choices.
//
//	bash benchmark/run.sh                                   every workload, both passes, as a table
//	bash benchmark/run.sh -out new.json                     … and keep the numbers
//	bash benchmark/run.sh -diff old.json new.json           compare two kept sets against the bounds
//	bash benchmark/run.sh --workload write-tcp --seed 3 --seconds 15 --trace 0
//	                                                        one run; last stdout line is the result object
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// buildDir is the one place the benchmark writes: the driver's build
// directory inside the checkout (run.sh puts the binary there too).
const buildDir = ".bench_build"

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Uint64("seed", 1, "seeds the load generator's key, read/write and value draws; the cluster's own RNG is fixed")
		seconds  = flag.Int("seconds", 15, "measured window in seconds, shared by five segments (each after its own 1 s warm-up)")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass + microbenches (per-layer metrics); default: both")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
		out      = flag.String("out", "", "write every result to this file, for -diff")
		diff     = flag.Bool("diff", false, "compare two -out files: -diff old.json new.json")
		spec     = flag.String("spec", "BENCHMARK.json", "the benchmark's description (bounds for -diff)")
	)
	flag.Parse()
	var err error
	switch {
	case *diff && flag.NArg() == 2:
		err = runDiff(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
	case *diff:
		err = errors.New("-diff needs two files: old.json new.json")
	default:
		err = run(*name, *seed, *seconds, *trace, *traceOut, *out, *spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, traceOut, out, spec string) error {
	if seconds < 1 || trace < -1 || trace > 1 || flag.NArg() != 0 {
		return errors.New("usage: [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-trace-out file] [-out file] | -diff old.json new.json")
	}
	// A checkout always has the description next to the sources; without
	// it this is not a checkout and nothing should be measured.
	if _, err := os.Stat(spec); err != nil {
		return fmt.Errorf("not at the root of a checkout: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	env := currentEnvironment(buildDir, seed, seconds)
	opts := runOpts{seed: seed, seconds: seconds, traceOut: traceOut, dataRoot: buildDir}

	if name != "" && trace >= 0 {
		// One run for the driver: explanation on stderr, and the result
		// object alone as the last line of stdout.
		opts.traced = trace == 1
		printEnvironment(os.Stderr, env)
		res, err := runWorkload(selected[0], opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defs := endToEnd
		if opts.traced {
			defs = perLayer
		}
		printResult(os.Stderr, selected[0], defs, res)
		return json.NewEncoder(os.Stdout).Encode(driverLine(defs, res))
	}

	// Every workload, each pass in a process of its own — the same
	// invocation the driver makes — so a number printed here was measured
	// exactly as a driver's number is, on a heap no earlier run has used.
	if traceOut != "" && name == "" {
		return errors.New("-trace-out needs -workload: each traced run would overwrite the file")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ledger := ledgerFile{Env: env, Workloads: map[string]*ledgerWorkload{}}
	var firstErr error
	for _, w := range selected {
		lw := &ledgerWorkload{Valid: true, EndToEnd: map[string]ledgerMetric{}, PerLayer: map[string]ledgerMetric{}}
		ledger.Workloads[w.name] = lw
		for pass := 0; pass <= 1; pass++ {
			if trace >= 0 && trace != pass {
				continue
			}
			defs, into := endToEnd, lw.EndToEnd
			if pass == 1 {
				defs, into = perLayer, lw.PerLayer
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(pass), "-trace-out", traceOut, "-spec", spec)
			cmd.Stderr = os.Stdout
			line, err := cmd.Output()
			var res driverResult
			if err == nil {
				err = json.Unmarshal(line, &res)
			}
			if err != nil {
				fmt.Printf("\n%s: INVALID: %v\n", w.name, err)
				lw.Valid = false
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", w.name, err)
				}
				continue
			}
			lw.Attempted += res.Attempted
			lw.Failed += res.Failed
			for _, d := range defs {
				into[d.name] = ledgerMetric{Value: res.Metrics[d.name].Value, Unit: d.unit, Statistic: d.stat}
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(ledger, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return firstErr
}

// driverResult is the object the benchmark contract asks for.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine reports a run that passed every check; one that did not
// has already ended in an error and prints no result.
func driverLine(defs []metricDef, res runResult) driverResult {
	r := driverResult{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		r.Metrics[d.name] = driverMetric{Value: res.metrics[d.name], Unit: d.unit}
	}
	return r
}

// ledgerFile is what -out writes and -diff reads.
type ledgerFile struct {
	Env       environment                `json:"environment"`
	Workloads map[string]*ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Valid     bool                    `json:"valid"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]ledgerMetric `json:"end_to_end"`
	PerLayer  map[string]ledgerMetric `json:"per_layer"`
}

type ledgerMetric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Statistic string  `json:"statistic"`
}

func printEnvironment(w io.Writer, e environment) {
	fmt.Fprintf(w, "environment: git %s, %s, nproc %d, GOMAXPROCS %d, data on %s, seed %d, window %d s\n",
		e.GitRevision, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.DataFS, e.Seed, e.WindowS)
}

func printResult(w io.Writer, wl workload, defs []metricDef, res runResult) {
	fmt.Fprintf(w, "\n%s — %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "  ops attempted %d, failed %d; checks passed: linearizable history, replicas identical", res.attempted, res.failed)
	if wl.tcp {
		fmt.Fprint(w, ", acknowledged writes on a quorum of WALs")
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%-8d %s", d.name, res.metrics[d.name], d.unit, res.samples[d.name], d.stat)
		if d.moves != "" {
			fmt.Fprintf(w, " → %s", d.moves)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}
