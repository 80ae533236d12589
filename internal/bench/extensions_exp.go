package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/multivalue"
	"ooc/internal/netsim"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
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
			nw := netsim.New(c.n, netsim.WithSeed(seed))
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			outs := make([]checker.RunOutcome[string], c.n)
			var wg sync.WaitGroup
			for id := 0; id < c.n; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					d, err := multivalue.RunDecomposed[string](ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, inputs[id],
						core.WithMaxRounds(20000))
					if err == nil {
						outs[id] = checker.RunOutcome[string]{Node: id, Decided: true, Value: d.Value, Round: d.Round}
					} else {
						outs[id] = checker.RunOutcome[string]{Node: id}
					}
				}(id)
			}
			wg.Wait()
			cancel()
			report.Merge(checker.CheckConsensus(outs, inputMap, true))
			maxRound := 0
			for _, o := range outs {
				if o.Decided {
					decided++
					if o.Round > maxRound {
						maxRound = o.Round
					}
				}
			}
			rounds.add(float64(maxRound))
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
			cons := sharedmem.NewConsensus(c.n)
			inputs := make(map[int]int, c.n)
			outs := make([]checker.RunOutcome[int], c.n)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			var wg sync.WaitGroup
			for id := 0; id < c.n; id++ {
				v := id % 2
				if c.split == "unanimous" {
					v = 1
				}
				inputs[id] = v
				wg.Add(1)
				go func(id, v int) {
					defer wg.Done()
					d, err := cons.Run(ctx, id, rng.Fork(uint64(id)), v, core.WithMaxRounds(20000))
					if err == nil {
						outs[id] = checker.RunOutcome[int]{Node: id, Decided: true, Value: d.Value, Round: d.Round}
					} else {
						outs[id] = checker.RunOutcome[int]{Node: id}
					}
				}(id, v)
			}
			wg.Wait()
			cancel()
			report.Merge(checker.CheckConsensus(outs, inputs, true))
			maxRound := 0
			for _, o := range outs {
				if o.Decided && o.Round > maxRound {
					maxRound = o.Round
				}
			}
			rounds.add(float64(maxRound))
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
