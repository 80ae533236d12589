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
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// RunE7 validates the Section 5 relation: a VAC built from two
// adopt-commit objects upholds all VAC guarantees, and the composite
// drives consensus under Algorithm 1; conversely a VAC forgetting its
// vacillate level is a correct AC.
func RunE7(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E7",
		Title:   "Section 5 object algebra: VAC from two ACs, AC from VAC",
		Columns: []string{"construction", "n", "trials", "rounds_checked", "mean_consensus_rounds", "violations"},
	}
	trials := s.Trials * 3

	// Three constructions, one parallel cell per (construction, n).
	type cell struct {
		construction string
		n            int
	}
	var cells []cell
	for _, n := range []int{3, 5, 9} {
		cells = append(cells, cell{"VAC = AC;AC", n})
	}
	for _, n := range []int{3, 5} {
		cells = append(cells, cell{"consensus(AC;AC + coin)", n})
	}
	for _, n := range []int{5, 9} {
		cells = append(cells, cell{"AC = forget(VAC)", n})
	}
	rows, err := runCells(len(cells), func(i int) (row, error) {
		c := cells[i]
		switch c.construction {
		case "VAC = AC;AC":
			// VAC from two shared-memory ACs: per-round property check.
			var (
				report checker.Report
				rounds int
			)
			for trial := 0; trial < trials; trial++ {
				seed := s.BaseSeed + uint64(c.n*1000+trial)
				rng := sim.NewRNG(seed)
				inputs := workload.BinaryInputs(workload.SplitRandom, c.n, rng)
				outs, err := oneCompositeVACRound(c.n, inputs)
				if err != nil {
					return nil, err
				}
				report.Merge(checker.CheckVACRound(outs, workload.InputsToMap(inputs)))
				rounds++
			}
			if !report.Ok() {
				return nil, fmt.Errorf("E7 composite VAC: %v", report.Violations[0])
			}
			return row{c.construction, c.n, trials, rounds, "-", len(report.Violations)}, nil
		case "consensus(AC;AC + coin)":
			// The composite VAC under the full template with a coin
			// reconciliator.
			var (
				roundsStat stats
				report     checker.Report
			)
			for trial := 0; trial < trials; trial++ {
				seed := s.BaseSeed + uint64(c.n*77+trial)
				rng := sim.NewRNG(seed)
				inputs := workload.BinaryInputs(workload.SplitHalf, c.n, rng)
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				res := sharedmem.Run(ctx, sharedmem.Config{Inputs: inputs, RNG: rng, MaxRounds: 2000}, compositeVAC(c.n))
				cancel()
				report.Merge(checker.CheckConsensus(res.Outcomes(), workload.InputsToMap(inputs), true))
				roundsStat.add(float64(res.MaxRound()))
			}
			if !report.Ok() {
				return nil, fmt.Errorf("E7 composite consensus: %v", report.Violations[0])
			}
			return row{c.construction, c.n, trials, "-", roundsStat.mean(), len(report.Violations)}, nil
		default:
			// AC from Ben-Or's VAC: per-round AC property check over the
			// message-passing object.
			tFaults := (c.n - 1) / 2
			var report checker.Report
			for trial := 0; trial < trials; trial++ {
				seed := s.BaseSeed + uint64(c.n*31+trial)
				rng := sim.NewRNG(seed)
				inputs := workload.BinaryInputs(workload.SplitRandom, c.n, rng)
				outs, err := oneACFromVACRound(c.n, tFaults, inputs, seed)
				if err != nil {
					return nil, err
				}
				report.Merge(checker.CheckACRound(outs, workload.InputsToMap(inputs)))
			}
			if !report.Ok() {
				return nil, fmt.Errorf("E7 forgetful AC: %v", report.Violations[0])
			}
			return row{c.construction, c.n, trials, trials, "-", len(report.Violations)}, nil
		}
	})
	if err != nil {
		return tbl, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	tbl.Notes = append(tbl.Notes,
		"classification: commit iff both ACs commit; adopt iff only the second commits; vacillate otherwise",
		"the brief announcement asserts the construction without giving it; these rounds property-check ours")
	return tbl, nil
}

func oneCompositeVACRound(n int, inputs []int) ([]checker.ObjectOutcome[int], error) {
	store1 := sharedmem.NewACStore(n)
	store2 := sharedmem.NewACStore(n)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	outs := make([]checker.ObjectOutcome[int], n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			vac := adapters.NewVACFromACs[int](store1.Object(id), store2.Object(id))
			c, v, err := vac.Propose(ctx, inputs[id], 1)
			outs[id] = checker.ObjectOutcome[int]{Node: id, Conf: c, Value: v}
			errs[id] = err
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// compositeVAC is Algorithm 1 over the Section 5 composite — a VAC from
// two shared-memory ACs — with Ben-Or's coin as the reconciliator.
func compositeVAC(n int) sharedmem.Processor {
	store1, store2 := sharedmem.NewACStore(n), sharedmem.NewACStore(n)
	return func(ctx context.Context, id int, rng *sim.RNG, v int, opts ...core.Option) (core.Decision[int], error) {
		vac := adapters.NewVACFromACs[int](store1.Object(id), store2.Object(id))
		return core.RunVAC[int](ctx, vac, benor.NewReconciliator(rng), v, opts...)
	}
}

func oneACFromVACRound(n, tFaults int, inputs []int, seed uint64) ([]checker.ObjectOutcome[int], error) {
	nw := netsim.New(n, netsim.WithSeed(seed))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	outs := make([]checker.ObjectOutcome[int], n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			vac, err := benor.NewVAC(nw.Node(id), tFaults)
			if err != nil {
				errs[id] = err
				return
			}
			ac := adapters.NewACFromVAC[int](vac)
			c, v, err := ac.Propose(ctx, inputs[id], 1)
			outs[id] = checker.ObjectOutcome[int]{Node: id, Conf: c, Value: v}
			errs[id] = err
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// OutcomeClasses counts, per round, how many of the named detector's
// returns in a template trace (core.WithRecorder) carried each
// confidence level. It reads an in-memory trace, whose detector returns
// carry [2]any{x, σ}.
func OutcomeClasses(tr trace.Trace, detector string) map[int][core.Commit + 1]int {
	perRound := make(map[int][core.Commit + 1]int)
	for _, ev := range trace.Returns(tr, detector) {
		if x := ev.Value.([2]any)[0].(core.Confidence); x.Valid() {
			counts := perRound[ev.Round]
			counts[x]++
			perRound[ev.Round] = counts
		}
	}
	return perRound
}

// RunE8 gathers the empirical core of Section 5's separation argument:
// Ben-Or's rounds genuinely produce all three outcome classes, and an
// adopt value observed mid-run can differ from the final decision — the
// exact scenario that makes "decide on the second AC's commit" (the
// two-consecutive-AC reading, sequence U in the paper) unsound, while the
// VAC treatment stays safe.
func RunE8(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E8",
		Title: "Ben-Or outcome classes per round (the template's trace)",
		Columns: []string{"n", "trials", "rounds", "vacillate", "adopt", "commit",
			"mixed_rounds", "adopt_ne_decision_runs", "violations"},
	}
	trials := s.Trials * 2
	sizes := []int{5, 9}
	rows, err := runCells(len(sizes), func(i int) (row, error) {
		n := sizes[i]
		tFaults := (n - 1) / 2
		var (
			totalRounds, vacN, adoptN, commitN, mixed, premature int
			report                                               checker.Report
		)
		for trial := 0; trial < trials; trial++ {
			seed := s.BaseSeed + uint64(n*100+trial)
			rng := sim.NewRNG(seed)
			inputs := workload.BinaryInputs(workload.SplitHalf, n, rng)
			tr := runBenOr(benor.RunDecomposed, tFaults, inputs, nil, seed, 2000, nil)
			report.Merge(checker.CheckConsensus(tr.outcomes, workload.InputsToMap(inputs), true))

			decided := -1
			for _, o := range tr.outcomes {
				if o.Decided {
					decided = o.Value
				}
			}
			for _, counts := range OutcomeClasses(tr.record, "vac") {
				totalRounds++
				vacN += counts[core.Vacillate]
				adoptN += counts[core.Adopt]
				commitN += counts[core.Commit]
				if counts[core.Vacillate] > 0 && counts[core.Adopt] > 0 {
					mixed++
				}
			}
			for _, ev := range trace.Returns(tr.record, "vac") {
				if ret := ev.Value.([2]any); ret[0] == core.Adopt && ret[1] != decided {
					premature++ // one run, counted once
					break
				}
			}
		}
		if !report.Ok() {
			return nil, fmt.Errorf("E8: %v", report.Violations[0])
		}
		return row{n, trials, totalRounds, vacN, adoptN, commitN, mixed, premature, len(report.Violations)}, nil
	})
	if err != nil {
		return tbl, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	tbl.Notes = append(tbl.Notes,
		"mixed_rounds: rounds where vacillate and adopt coexist — the state one AC per round cannot express",
		"adopt_ne_decision_runs: runs where some round's adopt value differs from the eventual decision;",
		"  deciding on that adopt (the two-AC sequence U of Section 5) would have violated agreement")
	return tbl, nil
}

// RunE10 measures communication: messages per round, normalized by n²,
// for each protocol.
func RunE10(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E10",
		Title:   "Message complexity per protocol round",
		Columns: []string{"protocol", "n", "trials", "mean_msgs", "mean_rounds", "msgs_per_round", "msgs_per_round_per_n2"},
	}
	// Ben-Or and Phase-King cells are simulation-time only, so they run
	// through the parallel pool; the Raft rows below stay sequential (real
	// timers).
	type cell struct {
		protocol string
		n, t     int
	}
	var cells []cell
	for _, n := range []int{3, 5, 9} {
		cells = append(cells, cell{"ben-or", n, (n - 1) / 2})
	}
	for _, size := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		cells = append(cells, cell{"phase-king", size.n, size.t})
	}
	rows, err := runCells(len(cells), func(i int) (row, error) {
		c := cells[i]
		if c.protocol == "ben-or" {
			// Two broadcasts per processor per round → ~2n² per round.
			var msgs, rounds stats
			for trial := 0; trial < s.Trials; trial++ {
				seed := s.BaseSeed + uint64(c.n*17+trial)
				rng := sim.NewRNG(seed)
				inputs := workload.BinaryInputs(workload.SplitHalf, c.n, rng)
				tr := runBenOr(benor.RunDecomposed, c.t, inputs, nil, seed, 2000, nil)
				msgs.add(float64(tr.stats.MessagesSent))
				rounds.add(float64(tr.maxRound))
			}
			mpr := 0.0
			if rounds.mean() > 0 {
				mpr = msgs.mean() / rounds.mean()
			}
			return row{"ben-or", c.n, s.Trials, msgs.mean(), rounds.mean(), mpr, mpr / float64(c.n*c.n)}, nil
		}
		// Phase-King: three exchanges of ≤n messages per processor per
		// phase.
		var msgs stats
		phases := float64(c.t + 2)
		for trial := 0; trial < s.Trials; trial++ {
			seed := s.BaseSeed + uint64(c.n*13+trial)
			rng := sim.NewRNG(seed)
			inputs := workload.BinaryInputs(workload.SplitHalf, c.n, rng)
			_, st, err := runPhaseKing(false, c.n, c.t, inputs, advFactory{name: "none"}, 2, seed)
			if err != nil {
				return nil, err
			}
			msgs.add(float64(st.MessagesSent))
		}
		mpr := msgs.mean() / phases
		return row{"phase-king", c.n, s.Trials, msgs.mean(), phases, mpr, mpr / float64(c.n*c.n)}, nil
	})
	if err != nil {
		return tbl, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	// Raft: per "round" (term), message cost is heartbeat-driven. These
	// trials run real wall-clock timers, so they stay sequential.
	for _, n := range []int{3, 5} {
		var msgs, terms stats
		for trial := 0; trial < min(s.Trials, 10); trial++ {
			seed := s.BaseSeed + uint64(n*7+trial)
			tr := runRaft(raft.Decree[string]{}, n, seed, false)
			msgs.add(float64(trace.Summarize(tr.record).MessagesSent))
			terms.add(float64(tr.res.MaxRound()))
		}
		mpr := 0.0
		if terms.mean() > 0 {
			mpr = msgs.mean() / terms.mean()
		}
		tbl.AddRow("raft", n, min(s.Trials, 10), msgs.mean(), terms.mean(), mpr, mpr/float64(n*n))
	}
	tbl.Notes = append(tbl.Notes,
		"ben-or ≈ 2n² msgs/round (two broadcasts per processor); phase-king ≤ 3n² per phase (king exchange is 1×n)",
		"raft's cost per term is time-driven (heartbeats), not round-driven; normalize accordingly")
	return tbl, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
