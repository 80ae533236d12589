package bench

import (
	"context"
	"fmt"
	"time"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/raft"
	"ooc/internal/trace"
)

const (
	benchElection  = 30 * time.Millisecond
	benchHeartbeat = 6 * time.Millisecond
)

// raftTrial is one simulated Raft execution's accounting.
type raftTrial struct {
	res     checker.Execution[string]
	inputs  map[int]string
	elapsed time.Duration
	record  trace.Trace // network events and the processors' trace events
}

// runRaft executes one trial of proc on n nodes with inputs "v<id>", the
// experiments' timers and, with crashLeader, the first leader crashed.
func runRaft(proc raft.Processor[string], n int, seed uint64, crashLeader bool) raftTrial {
	tr := raftTrial{inputs: make(map[int]string, n)}
	inputs := make([]string, n)
	for id := range inputs {
		inputs[id] = fmt.Sprintf("v%d", id)
		tr.inputs[id] = inputs[id]
	}
	rec := trace.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	tr.res = raft.Run(ctx, raft.RunConfig[string]{Inputs: inputs, Seed: seed, ElectionTimeout: benchElection,
		HeartbeatInterval: benchHeartbeat, CrashLeader: crashLeader, Recorder: rec}, proc)
	tr.elapsed = time.Since(start)
	tr.record = rec.Snapshot()
	return tr
}

// RunE5 validates Lemma 6: Raft with the D&S command solves single-decree
// consensus, with and without a leader crash mid-run.
func RunE5(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E5",
		Title:   "Raft single-decree consensus via D&S (Algorithm 7)",
		Columns: []string{"n", "fault", "trials", "decided", "mean_ms", "mean_msgs", "max_term", "violations"},
	}
	sizes := []int{3, 5}
	for _, n := range sizes {
		for _, fault := range []string{"none", "leader-crash"} {
			var (
				ms, msgs, terms stats
				decidedTotal    int
				report          checker.Report
			)
			for trial := 0; trial < s.Trials; trial++ {
				seed := s.BaseSeed + uint64(n*100+trial)
				tr := runRaft(raft.Decree[string]{}, n, seed, fault == "leader-crash")
				outs := tr.res.Outcomes()
				for _, o := range outs {
					if o.Decided {
						decidedTotal++
					}
				}
				report.Merge(checker.CheckConsensus(outs, tr.inputs, true))
				ms.add(tr.elapsed.Seconds() * 1000)
				msgs.add(float64(trace.Summarize(tr.record).MessagesSent))
				terms.add(float64(tr.res.MaxRound()))
			}
			tbl.AddRow(n, fault, s.Trials, decidedTotal, ms.mean(), msgs.mean(), int(terms.max()), len(report.Violations))
			if !report.Ok() {
				return tbl, fmt.Errorf("E5: %v", report.Violations[0])
			}
		}
	}
	tbl.Notes = append(tbl.Notes,
		"election timeout 30ms, heartbeat 6ms; time-to-decision is dominated by the first successful election",
		"leader-crash trials crash the first elected leader; survivors re-elect and still agree")
	return tbl, nil
}

// RunE6 validates Lemma 7 operationally: the VAC view of Raft under the
// generic template reaches consensus, and the three outcome classes map
// onto protocol events as Section 4.3 describes.
func RunE6(s Suite) (Table, error) {
	tbl := Table{
		ID:      "E6",
		Title:   "Raft as VAC + timer reconciliator under Algorithm 1 (Algorithms 10-11)",
		Columns: []string{"n", "trials", "decided", "vacillates", "adopts", "commits", "violations"},
	}
	trials := s.Trials
	if trials > 10 {
		trials = 10 // wall-clock bound: each trial runs real timers
	}
	for _, n := range []int{3, 5} {
		var (
			decided, vac, adopt, commit int
			report                      checker.Report
		)
		for trial := 0; trial < trials; trial++ {
			seed := s.BaseSeed + uint64(n*10+trial)
			tr := runRaft(raft.VACConsensus[string]{}, n, seed, false)
			outs := tr.res.Outcomes()
			report.Merge(checker.CheckConsensus(outs, tr.inputs, true))
			for _, o := range outs {
				if o.Decided {
					decided++
				}
			}
			for _, counts := range OutcomeClasses(tr.record, "vac") {
				vac += counts[core.Vacillate]
				adopt += counts[core.Adopt]
				commit += counts[core.Commit]
			}
		}
		tbl.AddRow(n, trials, decided, vac, adopt, commit, len(report.Violations))
		if !report.Ok() {
			return tbl, fmt.Errorf("E6: %v", report.Violations[0])
		}
	}
	tbl.Notes = append(tbl.Notes,
		"every processor vacillates at least once (the timer must fire before anyone campaigns)",
		"commits terminate each processor's template; adopts mark tentative log landings")
	return tbl, nil
}
