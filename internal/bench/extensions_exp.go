package bench

import (
	"context"
	"fmt"
	"time"

	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/multivalue"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

// RunE11 measures the framework extension of internal/multivalue:
// consensus over arbitrary value domains from Ben-Or's own VAC, run over
// the whole domain, with only the reconciliator swapped for one that
// samples the round's reports, under the unchanged Algorithm 1 template.
func RunE11(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E11",
		Title:   "Multivalued consensus (Ben-Or VAC + round-report reconciliator under Algorithm 1)",
		Columns: []string{"n", "t", "domain", "trials", "decided", "mean_rounds", "max_rounds", "violations"},
	}
	type cfg struct{ n, domain int }
	cfgs := []cfg{{3, 2}, {5, 2}, {5, 5}, {7, 3}}
	if !s.Quick {
		cfgs = append(cfgs, cfg{7, 7}, cfg{9, 3})
	}
	rows, err := runCells(len(cfgs), func(i int) (row, error) {
		c := cfgs[i]
		tFaults := (c.n - 1) / 2
		var (
			rounds  stats
			decided int
			report  checker.Report
		)
		for trial := 0; trial < s.Trials; trial++ {
			seed := s.BaseSeed + uint64(c.n*1000+c.domain*100+trial)
			rng := sim.NewRNG(seed)
			inputs := make([]string, c.n)
			inputMap := make(map[int]string, c.n)
			for id := range inputs {
				inputs[id] = fmt.Sprintf("v%d", rng.Intn(c.domain))
				inputMap[id] = inputs[id]
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res := benor.Run(ctx, benor.Config[string]{T: tFaults, Inputs: inputs, MaxRounds: 20000,
				Seed: seed, RNG: rng}, multivalue.RunDecomposed[string])
			cancel()
			outs := res.Outcomes()
			report.Merge(checker.CheckConsensus(outs, inputMap, true))
			for _, o := range outs {
				if o.Decided {
					decided++
				}
			}
			rounds.add(float64(res.MaxRound()))
		}
		if !report.Ok() {
			return nil, fmt.Errorf("E11: %v", report.Violations[0])
		}
		return row{c.n, tFaults, c.domain, s.Trials, decided, rounds.mean(), int(rounds.max()), len(report.Violations)}, nil
	})
	if err != nil {
		return tbl, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	tbl.Notes = append(tbl.Notes,
		"domain is the number of distinct candidate values; expected rounds grow with both n and domain",
		"the round-report reconciliator preserves validity by construction (only reported preferences are sampled)")
	return tbl, nil
}

// RunE12 measures the prior framework in its home model: Aspnes's
// shared-memory consensus from Gafni's adopt-commit and the
// probabilistic-write conciliator, under Algorithm 2.
func RunE12(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E12",
		Title:   "Shared-memory consensus (Gafni AC + probabilistic-write conciliator, Algorithm 2)",
		Columns: []string{"n", "split", "trials", "mean_rounds", "max_rounds", "violations"},
	}
	sizes := []int{2, 4, 8}
	if !s.Quick {
		sizes = append(sizes, 16, 32)
	}
	type cell struct {
		n     int
		split string
	}
	var cells []cell
	for _, n := range sizes {
		for _, split := range []string{"unanimous", "half"} {
			cells = append(cells, cell{n, split})
		}
	}
	rows, err := runCells(len(cells), func(i int) (row, error) {
		c := cells[i]
		var (
			rounds stats
			report checker.Report
		)
		for trial := 0; trial < s.Trials; trial++ {
			seed := s.BaseSeed + uint64(c.n*100+trial)
			rng := sim.NewRNG(seed)
			inputs := make([]int, c.n)
			for id := range inputs {
				inputs[id] = id % 2
				if c.split == "unanimous" {
					inputs[id] = 1
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res := sharedmem.Run(ctx, sharedmem.Config{Inputs: inputs, RNG: rng, MaxRounds: 20000}, sharedmem.NewConsensus(c.n).Run)
			cancel()
			report.Merge(checker.CheckConsensus(res.Outcomes(), workload.InputsToMap(inputs), true))
			rounds.add(float64(res.MaxRound()))
		}
		if !report.Ok() {
			return nil, fmt.Errorf("E12: %v", report.Violations[0])
		}
		return row{c.n, c.split, s.Trials, rounds.mean(), int(rounds.max()), len(report.Violations)}, nil
	})
	if err != nil {
		return tbl, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	tbl.Notes = append(tbl.Notes,
		"unanimous inputs commit in round 1 (AC convergence); contested rounds end when one probabilistic write wins",
		"this is Aspnes's framework in its native model — the baseline the paper's VAC framework generalizes")
	return tbl, nil
}
