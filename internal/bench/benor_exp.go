package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ooc/internal/adapters"
	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/netsim"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// benorTrial is one full Ben-Or execution's accounting.
type benorTrial struct {
	outcomes  []checker.RunOutcome[int]
	stats     trace.Stats
	maxRound  int
	instrLog  *adapters.OutcomeLog
	decidedAt map[int]int
}

// benOrVariant selects decomposed (the paper) or monolithic (baseline).
type benOrVariant int

const (
	variantDecomposed benOrVariant = iota + 1
	variantMonolithic
)

// runBenOr executes one trial: n processors, fault bound t, given inputs,
// optional crash plan, on a seeded network.
func runBenOr(
	variant benOrVariant,
	n, tFaults int,
	inputs []int,
	crashes []workload.CrashSpec,
	seed uint64,
	maxRounds int,
	instrument bool,
	reg *metrics.Registry,
) (benorTrial, error) {
	rec := trace.NewRecorder()
	nw := netsim.New(n, netsim.WithSeed(seed), netsim.WithRecorder(rec), netsim.WithMetrics(reg))
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	crashed := make(map[int]bool, len(crashes))
	for _, c := range crashes {
		crashed[c.Node] = true
		if c.AfterSends == 0 {
			nw.Crash(c.Node)
		} else {
			nw.CrashAfterSends(c.Node, c.AfterSends)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	trial := benorTrial{decidedAt: make(map[int]int, n)}
	if instrument {
		trial.instrLog = &adapters.OutcomeLog{}
	}
	outcomes := make([]checker.RunOutcome[int], n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nodeRNG := rng.Fork(uint64(id))
			var (
				d   core.Decision[int]
				err error
			)
			switch variant {
			case variantDecomposed:
				if trial.instrLog != nil {
					vac, vErr := benor.NewVAC(nw.Node(id), tFaults)
					if vErr != nil {
						err = vErr
						break
					}
					iv := adapters.NewInstrumentedVAC[int](vac, trial.instrLog, id)
					d, err = core.RunVAC[int](ctx, iv, benor.NewReconciliator(nodeRNG), inputs[id],
						core.WithMaxRounds(maxRounds), core.WithMetrics(reg))
				} else {
					d, err = benor.RunDecomposed(ctx, nw.Node(id), nodeRNG, tFaults, inputs[id],
						core.WithMaxRounds(maxRounds), core.WithMetrics(reg))
				}
			case variantMonolithic:
				d, err = benor.RunMonolithic(ctx, nw.Node(id), nodeRNG, tFaults, inputs[id], maxRounds, nil)
			}
			if err == nil {
				outcomes[id] = checker.RunOutcome[int]{Node: id, Decided: true, Value: d.Value, Round: d.Round}
			} else {
				outcomes[id] = checker.RunOutcome[int]{Node: id}
			}
		}(id)
	}
	wg.Wait()

	for _, o := range outcomes {
		if crashed[o.Node] {
			continue // a crashed processor owes nothing
		}
		trial.outcomes = append(trial.outcomes, o)
		if o.Decided {
			trial.decidedAt[o.Node] = o.Round
			if o.Round > trial.maxRound {
				trial.maxRound = o.Round
			}
		}
	}
	trial.stats = trace.Summarize(rec.Snapshot())
	return trial, nil
}

// RunE1 validates Lemmas 1, 4 and 5: the decomposed Ben-Or under the
// generic template reaches consensus safely across sizes, splits, and
// crash schedules.
func RunE1(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E1",
		Title:   "Ben-Or (VAC + coin reconciliator under Algorithm 1)",
		Columns: []string{"n", "t", "crashes", "split", "trials", "decided", "mean_rounds", "max_rounds", "mean_msgs", "violations"},
	}
	sizes := []int{3, 5, 9}
	if !s.Quick {
		sizes = append(sizes, 17)
	}
	splits := []workload.Split{workload.SplitUnanimous1, workload.SplitOneDissent, workload.SplitHalf, workload.SplitRandom}
	type cell struct {
		n, tFaults, crashCount int
		split                  workload.Split
	}
	var cells []cell
	for _, n := range sizes {
		tFaults := (n - 1) / 2
		for _, crashCount := range []int{0, tFaults} {
			for _, split := range splits {
				cells = append(cells, cell{n, tFaults, crashCount, split})
			}
		}
	}
	rows, err := runCells(len(cells), func(i int) (meteredRow, error) {
		c := cells[i]
		reg := s.cellRegistry()
		var (
			rounds, msgs stats
			decided      int
			report       checker.Report
		)
		for trial := 0; trial < s.Trials; trial++ {
			seed := s.BaseSeed + uint64(c.n*1000+int(c.split)*100+c.crashCount*10+trial)
			rng := sim.NewRNG(seed)
			inputs := workload.BinaryInputs(c.split, c.n, rng)
			var crashes []workload.CrashSpec
			if c.crashCount > 0 {
				crashes = workload.CrashPlan(c.n, c.crashCount, rng)
			}
			tr, err := runBenOr(variantDecomposed, c.n, c.tFaults, inputs, crashes, seed, 2000, false, reg)
			if err != nil {
				return meteredRow{}, err
			}
			inputMap := workload.InputsToMap(inputs)
			report.Merge(checker.CheckConsensus(tr.outcomes, inputMap, c.crashCount == 0))
			rounds.add(float64(tr.maxRound))
			msgs.add(float64(tr.stats.MessagesSent))
			decided += len(tr.decidedAt)
		}
		if !report.Ok() {
			return meteredRow{}, fmt.Errorf("E1: %v", report.Violations[0])
		}
		return meteredRow{
			r: row{c.n, c.tFaults, c.crashCount, c.split, s.Trials, decided,
				rounds.mean(), int(rounds.max()), msgs.mean(), len(report.Violations)},
			key: fmt.Sprintf("n=%d,t=%d,crashes=%d,split=%s", c.n, c.tFaults, c.crashCount, c.split),
			met: reg.Snapshot(),
		}, nil
	})
	if err != nil {
		return tbl, err
	}
	addMeteredRows(&tbl, s, rows)
	tbl.Notes = append(tbl.Notes,
		"unanimous inputs must decide in round 1 (VAC convergence); splits pay coin-flip rounds",
		"violations column must be 0: agreement/validity/termination checked per trial")
	return tbl, nil
}

// RunE2 compares the decomposition against the monolithic baseline: same
// message pattern, so rounds and message counts should match in
// distribution.
func RunE2(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E2",
		Title:   "Ben-Or: decomposed (paper) vs monolithic (baseline)",
		Columns: []string{"n", "split", "variant", "trials", "mean_rounds", "mean_msgs", "msgs_per_round", "violations"},
	}
	n := 5
	tFaults := 2
	splits := []workload.Split{workload.SplitUnanimous1, workload.SplitHalf, workload.SplitRandom}
	type cell struct {
		split   workload.Split
		name    string
		variant benOrVariant
	}
	var cells []cell
	for _, split := range splits {
		cells = append(cells,
			cell{split, "decomposed", variantDecomposed},
			cell{split, "monolithic", variantMonolithic})
	}
	rows, err := runCells(len(cells), func(i int) (meteredRow, error) {
		c := cells[i]
		reg := s.cellRegistry()
		var (
			rounds, msgs, mpr stats
			report            checker.Report
		)
		for trial := 0; trial < s.Trials; trial++ {
			seed := s.BaseSeed + uint64(int(c.split)*100+trial)
			rng := sim.NewRNG(seed)
			inputs := workload.BinaryInputs(c.split, n, rng)
			tr, err := runBenOr(c.variant, n, tFaults, inputs, nil, seed, 2000, false, reg)
			if err != nil {
				return meteredRow{}, err
			}
			report.Merge(checker.CheckConsensus(tr.outcomes, workload.InputsToMap(inputs), true))
			rounds.add(float64(tr.maxRound))
			msgs.add(float64(tr.stats.MessagesSent))
			if tr.maxRound > 0 {
				mpr.add(float64(tr.stats.MessagesSent) / float64(tr.maxRound))
			}
		}
		if !report.Ok() {
			return meteredRow{}, fmt.Errorf("E2: %v", report.Violations[0])
		}
		return meteredRow{
			r:   row{n, c.split, c.name, s.Trials, rounds.mean(), msgs.mean(), mpr.mean(), len(report.Violations)},
			key: fmt.Sprintf("split=%s,variant=%s", c.split, c.name),
			met: reg.Snapshot(),
		}, nil
	})
	if err != nil {
		return tbl, err
	}
	addMeteredRows(&tbl, s, rows)
	tbl.Notes = append(tbl.Notes,
		"both variants run the same rounds and messages in distribution, not per seed: netsim delivers in goroutine-interleaving order, so a seed does not fix a run; the object boundary costs no extra messages")
	return tbl, nil
}

// RunE9 measures the reconciliator's termination behaviour: the
// distribution of rounds to consensus as n grows under the adversarial
// half-half split, plus the coin-bias ablation.
func RunE9(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E9",
		Title:   "Rounds to consensus vs n and coin bias (half-half split)",
		Columns: []string{"n", "coin_p", "trials", "mean_rounds", "p50", "p95", "max"},
	}
	sizes := []int{3, 5, 9}
	if !s.Quick {
		sizes = append(sizes, 13)
	}
	trials := s.Trials * 2
	type cell struct {
		n, tFaults int
		p          float64 // coin bias; fair cells run the standard reconciliator
		biased     bool
	}
	var cells []cell
	for _, n := range sizes {
		cells = append(cells, cell{n: n, tFaults: (n - 1) / 2, p: 0.5})
	}
	// Coin-bias ablation at n=5: a biased coin aligned with nothing still
	// terminates; the fair coin is not special.
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cells = append(cells, cell{n: 5, tFaults: 2, p: p, biased: true})
	}
	rows, err := runCells(len(cells), func(i int) (meteredRow, error) {
		c := cells[i]
		reg := s.cellRegistry()
		var rounds stats
		for trial := 0; trial < trials; trial++ {
			var (
				tr  benorTrial
				err error
			)
			if c.biased {
				seed := s.BaseSeed + uint64(trial) + uint64(c.p*1e4)
				rng := sim.NewRNG(seed)
				inputs := workload.BinaryInputs(workload.SplitHalf, c.n, rng)
				tr, err = runBenOrBiased(c.n, c.tFaults, inputs, seed, c.p, reg)
			} else {
				seed := s.BaseSeed + uint64(c.n*10000+trial)
				rng := sim.NewRNG(seed)
				inputs := workload.BinaryInputs(workload.SplitHalf, c.n, rng)
				tr, err = runBenOr(variantDecomposed, c.n, c.tFaults, inputs, nil, seed, 5000, false, reg)
			}
			if err != nil {
				return meteredRow{}, err
			}
			rounds.add(float64(tr.maxRound))
		}
		return meteredRow{
			r: row{c.n, fmt.Sprintf("%.2f", c.p), trials, rounds.mean(),
				rounds.percentile(0.5), rounds.percentile(0.95), int(rounds.max())},
			key: fmt.Sprintf("n=%d,coin_p=%.2f", c.n, c.p),
			met: reg.Snapshot(),
		}, nil
	})
	if err != nil {
		return tbl, err
	}
	addMeteredRows(&tbl, s, rows)
	tbl.Notes = append(tbl.Notes,
		"expected rounds grow with n under a fair private coin (known theory); any non-degenerate bias still terminates")
	return tbl, nil
}

// runBenOrBiased is the coin-bias ablation variant of runBenOr.
func runBenOrBiased(n, tFaults int, inputs []int, seed uint64, p float64, reg *metrics.Registry) (benorTrial, error) {
	rec := trace.NewRecorder()
	nw := netsim.New(n, netsim.WithSeed(seed), netsim.WithRecorder(rec), netsim.WithMetrics(reg))
	rng := sim.NewRNG(seed ^ 0xabcdef)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	trial := benorTrial{decidedAt: make(map[int]int, n)}
	outcomes := make([]checker.RunOutcome[int], n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			vac, err := benor.NewVAC(nw.Node(id), tFaults)
			if err != nil {
				return
			}
			recon := benor.NewBiasedReconciliator(rng.Fork(uint64(id)), p)
			d, err := core.RunVAC[int](ctx, vac, recon, inputs[id], core.WithMaxRounds(5000), core.WithMetrics(reg))
			if err == nil {
				outcomes[id] = checker.RunOutcome[int]{Node: id, Decided: true, Value: d.Value, Round: d.Round}
			}
		}(id)
	}
	wg.Wait()
	for _, o := range outcomes {
		trial.outcomes = append(trial.outcomes, o)
		if o.Decided {
			trial.decidedAt[o.Node] = o.Round
			if o.Round > trial.maxRound {
				trial.maxRound = o.Round
			}
		}
	}
	trial.stats = trace.Summarize(rec.Snapshot())
	return trial, nil
}
