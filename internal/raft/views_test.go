package raft

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/rtrace"
)

// TestViewsAgreeOnTheRaftPath runs one cluster with a registry, a flight
// recorder per node and an unfiltered subscription per node through two
// elections, writes, and reads on every node, and holds the views to
// each other: each leadership win is one raft_elections_won_total, one
// EventBecameLeader and one flight EvBecameLeader; each committed entry
// one raft_entries_committed_total and one EventCommitted; ReadStats are
// the raft_reads_* series; and a syncer's Barriers are its
// raft_sync_barriers_total.
func TestViewsAgreeOnTheRaftPath(t *testing.T) {
	const n = 3
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	flights := make([]*rtrace.Flight, n)
	syncers := make([]*SyncCoalescer, n)
	stores := make([]*FileStorage, n)
	c := newCluster(t, n, 29, withLease(testElection/2), func(cfg *Config) {
		s, err := OpenFileStorage(filepath.Join(dir, fmt.Sprintf("n%d.wal", cfg.ID)))
		if err != nil {
			t.Fatal(err)
		}
		syncers[cfg.ID] = NewSyncCoalescer(SyncerConfig{Metrics: reg, Node: cfg.ID})
		s.SetSyncer(syncers[cfg.ID])
		stores[cfg.ID] = s
		flights[cfg.ID] = rtrace.NewFlight(cfg.ID, 1<<14)
		cfg.Storage, cfg.Flight, cfg.Metrics = s, flights[cfg.ID], reg
	})
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		c.cancel()
		for _, nd := range c.nodes {
			<-nd.Done()
		}
		for _, s := range stores {
			_ = s.Close()
		}
	}
	t.Cleanup(stop)

	client, err := NewClient(c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(c.ctx, 30*time.Second)
	defer cancel()
	work := func(round int) {
		for i := 0; i < 10; i++ {
			if _, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "k", Value: strconv.Itoa(round*10 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, nd := range c.nodes {
			for _, mode := range []ReadConsistency{ReadLinearizable, ReadLease, ReadStale} {
				if _, err := nd.ReadIndexMode(ctx, mode); err != nil && !errors.As(err, new(ErrNotLeader)) {
					t.Fatal(err)
				}
			}
		}
	}
	first := c.waitLeader()
	work(0)
	next := (first + 1) % n
	// A campaign loses to a follower whose log is ahead of the
	// campaigner's; the next one, once replication caught up, wins.
	deadline := time.Now().Add(15 * time.Second)
	for c.nodes[next].Status().State != Leader {
		if time.Now().After(deadline) {
			t.Fatalf("node %d's campaigns never won", next)
		}
		c.nodes[next].Campaign(nil)
		time.Sleep(20 * time.Millisecond)
	}
	work(1)
	stop()

	snap := reg.Snapshot()
	var wins, forwarded int64
	for id, nd := range c.nodes {
		node := strconv.Itoa(id)
		counter := func(name string, kv ...string) int64 {
			return snap.Counters[metrics.Label(name, append([]string{"node", node}, kv...)...)]
		}
		var won, committed int64
		for {
			e, err := c.subs[id].Next(context.Background())
			if err != nil {
				break
			}
			switch e.Kind {
			case EventBecameLeader:
				won++
			case EventCommitted:
				committed++
			}
		}
		records := flights[id].Snapshot()
		if len(records) == 1<<14 {
			t.Fatalf("node %d's flight ring wrapped", id)
		}
		var recorded int64
		for _, r := range records {
			if r.Code == rtrace.EvBecameLeader {
				recorded++
			}
		}
		if got := counter("raft_elections_won_total"); got != won || recorded != won {
			t.Fatalf("node %d: raft_elections_won_total %d, %d EventBecameLeader, %d flight EvBecameLeader", id, got, won, recorded)
		}
		if got := counter("raft_entries_committed_total"); got != committed || committed == 0 {
			t.Fatalf("node %d: raft_entries_committed_total %d, %d EventCommitted", id, got, committed)
		}
		lease, index, stale, fwd := nd.ReadStats()
		if counter("raft_reads_served_total", "mode", "lease") != lease ||
			counter("raft_reads_served_total", "mode", "readindex") != index ||
			counter("raft_reads_served_total", "mode", "stale") != stale ||
			counter("raft_reads_forwarded_total") != fwd {
			t.Fatalf("node %d: ReadStats %d/%d/%d/%d differ from the raft_reads_* series", id, lease, index, stale, fwd)
		}
		if got := counter("raft_sync_barriers_total"); got != syncers[id].Barriers() || got == 0 {
			t.Fatalf("node %d: raft_sync_barriers_total %d, Barriers %d", id, got, syncers[id].Barriers())
		}
		wins += won
		forwarded += fwd
	}
	if wins < 2 || forwarded == 0 {
		t.Fatalf("the run held %d leadership wins and %d forwarded reads; want 2 and some", wins, forwarded)
	}
}
