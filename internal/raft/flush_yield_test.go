package raft

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"ooc/internal/metrics"
)

// TestReleasedCallersShareTheNextPass pins the order, not the speed: a
// pass of the loop that released callers lets them run before it takes
// more input, so closed-loop callers come back as one cohort. It reads the
// series a live node exports (DESIGN.md §3.6.1, "Is the loop batching?").
// Without the yield at the end of flush() the loop keeps its P, takes the
// first caller's next request alone, and at one P every round carries
// exactly one read.
func TestReleasedCallersShareTheNextPass(t *testing.T) {
	const callers, ops = 8, 2000
	// Bounds on reads per confirmation round, and on Propose and
	// SubmitWait proposals per pass that took any. One P is all but
	// deterministic: 7.7, 7.2 and 3.7 with the yield (4.6, 7.4 and 4.0
	// under -race), exactly 1.00 each without it, and 1.00 for both kinds
	// of proposal when resolved tickets do not count toward it. Two Ps
	// vary with the machine: 3.5-5.0, 2.9-5.3 and 2.4-3.4 with, at most
	// 1.3, 1.3 and 1.2 without.
	for _, tc := range []struct {
		procs, reads, proposals int
		writes                  float64
	}{
		{procs: 1, reads: 4, proposals: 3, writes: 2.5},
		{procs: 2, reads: 2, proposals: 2, writes: 1.6},
	} {
		t.Run(fmt.Sprintf("procs=%d", tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			reg := metrics.NewRegistry()
			c := newCluster(t, 3, 97, func(cfg *Config) { cfg.Metrics = reg })
			leader := c.waitLeader()
			c.waitApplied(c.propose(KVCommand{Op: "set", Key: "k", Value: "v"}), leader)
			node := c.nodes[leader]
			id := strconv.Itoa(leader)
			// perUnit runs the closed loop and returns the leader's inputs
			// of the kind per unit the loop spent on them.
			perUnit := func(kind string, units func(metrics.Snapshot) int64, call func() error) float64 {
				t.Helper()
				inputs := func(s metrics.Snapshot) int64 {
					return s.Counters[metrics.Label("raft_loop_inputs_total", "node", id, "kind", kind)]
				}
				before := reg.Snapshot()
				closedLoop(t, callers, callers*ops, call)
				// A pass counts its inputs after its flush, so the last
				// caller can be back before its pass is counted; a Status
				// answered by a later pass is not. It also checks that the
				// ratio is one node's.
				if st := node.Status(); st.State != Leader {
					t.Fatalf("leadership moved during the run: %+v", st)
				}
				after := reg.Snapshot()
				n, d := inputs(after)-inputs(before), units(after)-units(before)
				if n < callers*ops || d == 0 {
					t.Fatalf("%d %ss counted over %d units, %d made", n, kind, d, callers*ops)
				}
				return float64(n) / float64(d)
			}

			perRound := perUnit("read", func(s metrics.Snapshot) int64 {
				return s.Counters[metrics.Label("raft_read_rounds_total", "node", id)]
			}, func() error {
				_, err := node.ReadIndex(c.ctx)
				return err
			})
			t.Logf("%.2f reads per confirmation round", perRound)
			if perRound < float64(tc.reads) {
				t.Errorf("%.2f reads per confirmation round, want >= %d: released callers did not run before the next pass", perRound, tc.reads)
			}

			// Storage-less, so the accept replies are unfenced and leave
			// from flush() as the read replies do.
			perPass := perUnit("proposal", func(s metrics.Snapshot) int64 {
				return s.Histograms[metrics.Label("raft_propose_batch_size", "node", id)].Count
			}, func() error {
				_, err := node.Propose(c.ctx, KVCommand{Op: "set", Key: "k", Value: "v"})
				return err
			})
			t.Logf("%.2f proposals per pass that took any", perPass)
			if perPass < float64(tc.proposals) {
				t.Errorf("%.2f proposals per pass that took any, want >= %d", perPass, tc.proposals)
			}

			// SubmitWait: the accept wakes nobody (the caller parks on to
			// the apply), but the pass that resolved it still steps aside,
			// so the apply worker releases the cohort before the loop's
			// next pass. The client spans the cluster, so a leadership move
			// ends in the check above rather than in retries at a follower.
			client, err := NewClient(c.nodes)
			if err != nil {
				t.Fatal(err)
			}
			perWrite := perUnit("proposal", func(s metrics.Snapshot) int64 {
				return s.Histograms[metrics.Label("raft_propose_batch_size", "node", id)].Count
			}, func() error {
				_, err := client.SubmitWait(c.ctx, KVCommand{Op: "set", Key: "k", Value: "v"})
				return err
			})
			t.Logf("%.2f SubmitWait proposals per pass that took any", perWrite)
			if perWrite < tc.writes {
				t.Errorf("%.2f SubmitWait proposals per pass that took any, want >= %.1f", perWrite, tc.writes)
			}
		})
	}
}
