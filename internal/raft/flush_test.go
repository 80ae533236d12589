package raft

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestFlushWithAndWithoutStorage drives the one write path through its
// two shapes — a persist worker behind MemStorage, and the storage-less
// degenerate case (nothing staged, nothing fenced, self-ack = log tail)
// — and requires the same observable behaviour from both: a 1-node and
// a 3-node cluster commit, apply, answer ReadIndex, compact, and (3
// nodes) catch a partitioned follower up with InstallSnapshot, ending
// with the same state machine contents on every node of every row.
func TestFlushWithAndWithoutStorage(t *testing.T) {
	const writes = 15
	var want []string // KVStore.Snapshot order: sorted
	for i := 0; i < writes; i++ {
		want = append(want, fmt.Sprintf("bulk%02d=x", i))
	}
	want = append(want, "w0=v")
	for _, n := range []int{1, 3} {
		for _, persist := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/memstorage=%v", n, persist), func(t *testing.T) {
				c := newCluster(t, n, 83, func(cfg *Config) {
					if persist {
						cfg.Storage = NewMemStorage()
					}
					cfg.SnapshotThreshold = 4
				})
				leader := c.waitLeader()
				connected := []int{leader}
				laggard := -1
				if n == 3 {
					laggard = (leader + 1) % n
					connected = append(connected, (leader+2)%n)
				}
				first := c.propose(KVCommand{Op: "set", Key: "w0", Value: "v"})
				c.waitApplied(first, connected...)

				// Cut one follower off, then commit far past the compaction
				// threshold so its next entry is gone from the leader's log.
				if laggard >= 0 {
					c.waitApplied(first, laggard)
					c.nw.Partition(connected)
				}
				var last int
				for i := 0; i < writes; i++ {
					last = c.propose(KVCommand{Op: "set", Key: fmt.Sprintf("bulk%02d", i), Value: "x"})
				}
				c.waitApplied(last, connected...)

				readCovers := func(id int) {
					t.Helper()
					rctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
					defer cancel()
					idx, err := c.nodes[id].ReadIndex(rctx)
					if err != nil {
						t.Fatalf("ReadIndex on node %d: %v", id, err)
					}
					if idx < last || c.kvs[id].AppliedIndex() < idx {
						t.Fatalf("node %d: read index %d, applied %d, last write %d", id, idx, c.kvs[id].AppliedIndex(), last)
					}
				}
				leader = c.waitLeader()
				readCovers(leader)

				deadline := time.Now().Add(10 * time.Second)
				for c.nodes[leader].Status().SnapshotIndex <= first {
					if time.Now().After(deadline) {
						t.Fatalf("leader never compacted: %+v", c.nodes[leader].Status())
					}
					time.Sleep(2 * time.Millisecond)
				}
				if st := c.nodes[leader].Status(); st.LogLength < last {
					t.Fatalf("log bookkeeping wrong after compaction: %+v", st)
				}

				if laggard >= 0 {
					c.nw.Heal()
					c.waitApplied(last, laggard)
					if st := c.nodes[laggard].Status(); st.SnapshotIndex == 0 {
						t.Fatalf("laggard caught up without a snapshot: %+v", st)
					}
					readCovers(laggard) // forwarded read, parked on the laggard's apply worker
				}
				for id, kv := range c.kvs {
					if got := kv.Snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("node %d state machine:\n got %v\nwant %v", id, got, want)
					}
				}
				c.checkElectionSafety()
			})
		}
	}
}
