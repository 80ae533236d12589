package raft

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/netsim"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
)

// heldNode starts a one-node group whose state machine holds every apply
// until sm.release, and returns once the node leads: its term's no-op,
// index 1, commits and is not applied. stop ends the node; the state
// machine is released when the test ends, so the apply worker drains.
func heldNode(t *testing.T, cfg Config) (nd *Node, sm *blockingSM, stop context.CancelFunc) {
	t.Helper()
	sm = newBlockingSM()
	cfg.ID, cfg.Endpoint, cfg.RNG, cfg.StateMachine = 0, netsim.New(1).Node(0), sim.NewRNG(7), sm
	cfg.ElectionTimeout, cfg.HeartbeatInterval = testElection, testHeartbeat
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(sm.release)
	t.Cleanup(stop)
	nd.Start(ctx)
	waitFor(t, "the node leads", func() bool { return nd.Status().State == Leader })
	return nd, sm, stop
}

// waitFor waits for cond, failing the test with what after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// readResult is what a read returned, and what the state machine had
// applied when it did.
type readResult struct {
	index   int
	err     error
	applied []int
}

// parkedRead starts a linearizable read on nd and returns once its
// caller is parked on the applied index; a read that returns first fails
// the test, since nd's state machine holds the index the read waits for.
func parkedRead(t *testing.T, ctx context.Context, nd *Node, sm *blockingSM) <-chan readResult {
	t.Helper()
	done := make(chan readResult, 1)
	go func() {
		idx, err := nd.ReadIndex(ctx)
		done <- readResult{idx, err, sm.applied()}
	}()
	awaitParked(t, nd, done)
	return done
}

// awaitParked waits until some caller is parked on nd's applied index,
// failing the test if the read behind done returns first.
func awaitParked(t *testing.T, nd *Node, done <-chan readResult) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		nd.applied.mu.Lock()
		parked := nd.applied.parked
		nd.applied.mu.Unlock()
		if parked > 0 {
			return
		}
		select {
		case r := <-done:
			t.Fatalf("read returned index %d (err %v) with the state machine at %v", r.index, r.err, r.applied)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the read never parked on the applied index")
		}
		time.Sleep(time.Millisecond)
	}
}

// covers reports whether applied, the indexes a state machine took in,
// reach index.
func covers(applied []int, index int) bool {
	return len(applied) > 0 && applied[len(applied)-1] >= index
}

// TestConfirmedReadWaitsForTheApply: the loop answers a read at
// confirmation, with the index above the state machine; its caller
// returns only once the state machine covers that index. The read's
// metrics and its span are taken where it returns: it is counted once
// under the path that served it, its latency covers the wait, and a
// sampled read keeps its queue, network and apply phases, the apply
// phase covering the wait.
func TestConfirmedReadWaitsForTheApply(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := rtrace.New(rtrace.Options{Sample: 1})
	nd, sm, _ := heldNode(t, Config{Metrics: reg, Tracer: tr})
	id, _ := tr.Begin(0, "get:linearizable", "k")
	done := parkedRead(t, rtrace.WithTrace(context.Background(), id), nd, sm)
	parkedAt := time.Now()
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("read returned index %d (err %v) while the state machine held at %v", r.index, r.err, r.applied)
	default:
	}
	held := time.Since(parkedAt)
	sm.release()
	r := <-done
	tr.End(id, r.err != nil)
	if r.err != nil || r.index < 1 || !covers(r.applied, r.index) {
		t.Fatalf("read returned index %d (err %v) with the state machine at %v", r.index, r.err, r.applied)
	}

	snap := reg.Snapshot()
	served := func(mode string) int64 {
		return snap.Counters[metrics.Label("raft_reads_served_total", "node", "0", "mode", mode)]
	}
	if idx, lease, stale := served("readindex"), served("lease"), served("stale"); idx != 1 || lease != 0 || stale != 0 {
		t.Fatalf("reads served: readindex %d, lease %d, stale %d; want one, by readindex", idx, lease, stale)
	}
	lat := snap.Histograms[metrics.Label("raft_read_latency_seconds", "node", "0")]
	if lat.Count != 1 || lat.Sum < held {
		t.Fatalf("read latency: %d samples summing %v, want one of at least the %v wait", lat.Count, lat.Sum, held)
	}

	span, ok := tr.Span(id)
	if !ok {
		t.Fatal("the sampled read left no span")
	}
	phases := map[rtrace.Phase]bool{}
	for _, pi := range span.Phases {
		phases[pi.Phase] = true
	}
	for _, p := range []rtrace.Phase{rtrace.PhaseQueue, rtrace.PhaseNetwork, rtrace.PhaseApply} {
		if !phases[p] {
			t.Fatalf("sampled read's span has no %v phase: %+v", p, span.Phases)
		}
	}
	if apply := span.PhaseTotal(rtrace.PhaseApply); apply < held {
		t.Fatalf("apply phase %v, the read waited %v on the state machine", apply, held)
	}
}

// TestConfirmedReadParksAcrossATermChange: a read whose index is fixed
// stays parked when the term moves, and returns that index once the
// state machine covers it.
func TestConfirmedReadParksAcrossATermChange(t *testing.T) {
	nd, sm, _ := heldNode(t, Config{})
	done := parkedRead(t, context.Background(), nd, sm)
	term := nd.Status().Term
	nd.Campaign(nil)
	waitFor(t, "the node leads a later term", func() bool {
		st := nd.Status()
		return st.Term > term && st.State == Leader
	})
	awaitParked(t, nd, done) // the term change woke it; it parks again
	sm.release()
	if r := <-done; r.err != nil || r.index != 1 || !covers(r.applied, 1) {
		t.Fatalf("read returned index %d (err %v) with the state machine at %v; want index 1, fixed in term %d",
			r.index, r.err, r.applied, term)
	}
}

// TestParkedReadEndsOnStopAndContext: a read parked on the apply returns
// ErrStopped when the node stops and ctx.Err() when its context ends.
func TestParkedReadEndsOnStopAndContext(t *testing.T) {
	t.Run("stop", func(t *testing.T) {
		nd, sm, stop := heldNode(t, Config{})
		done := parkedRead(t, context.Background(), nd, sm)
		stop()
		if r := <-done; !errors.Is(r.err, ErrStopped) {
			t.Fatalf("read on a stopped node returned index %d, err %v; want ErrStopped", r.index, r.err)
		}
	})
	t.Run("context", func(t *testing.T) {
		nd, sm, _ := heldNode(t, Config{})
		ctx, cancel := context.WithCancel(context.Background())
		done := parkedRead(t, ctx, nd, sm)
		cancel()
		if r := <-done; r.err != context.Canceled {
			t.Fatalf("read with an ended context returned index %d, err %v; want %v", r.index, r.err, context.Canceled)
		}
	})
}

// TestStaleReadSkipsTheLoop: a stale read answers from the published
// applied index without entering the main loop's mailbox, and fails with
// ErrStopped on a stopped node.
func TestStaleReadSkipsTheLoop(t *testing.T) {
	const reads = 50
	reg := metrics.NewRegistry()
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(3),
		ElectionTimeout: testElection, HeartbeatInterval: testHeartbeat, StateMachine: &KVStore{}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nd.Start(ctx)
	client, err := NewClient([]*Node{nd})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "k", Value: "v"})
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string, kv ...string) int64 {
		return reg.Snapshot().Counters[metrics.Label(name, append([]string{"node", "0"}, kv...)...)]
	}
	before := counter("raft_loop_inputs_total", "kind", "read")
	for i := 0; i < reads; i++ {
		if got, err := nd.ReadIndexMode(ctx, ReadStale); err != nil || got < idx {
			t.Fatalf("stale read %d: index %d, %v; want at least %d", i, got, err, idx)
		}
	}
	if after := counter("raft_loop_inputs_total", "kind", "read"); after != before {
		t.Fatalf("%d stale reads moved the loop's read inputs from %d to %d", reads, before, after)
	}
	if served := counter("raft_reads_served_total", "mode", "stale"); served != reads {
		t.Fatalf("%d stale reads served, %d counted", reads, served)
	}
	if _, _, stale, _ := nd.ReadStats(); stale != reads {
		t.Fatalf("%d stale reads served, ReadStats counts %d", reads, stale)
	}
	cancel()
	<-nd.Done()
	if got, err := nd.ReadIndexMode(context.Background(), ReadStale); !errors.Is(err, ErrStopped) {
		t.Fatalf("stale read on a stopped node: index %d, %v; want ErrStopped", got, err)
	}
}

// TestReadMetricsCountEachAnsweredRead: every answered read is counted
// once in raft_reads_served_total, under the path that served it — the
// same path ReadStats names — and leaves one raft_read_latency_seconds
// sample, on the node its caller asked, leader or follower.
func TestReadMetricsCountEachAnsweredRead(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newCluster(t, 3, 17, withLease(testElection/2), func(cfg *Config) { cfg.Metrics = reg })
	leader := c.waitLeader()
	c.waitApplied(c.propose(KVCommand{Op: "set", Key: "k", Value: "v"}), 0, 1, 2)
	answered := make([]int64, len(c.nodes))
	for round := 0; round < 5; round++ {
		for id, nd := range c.nodes {
			for _, mode := range []ReadConsistency{ReadLinearizable, ReadLease, ReadStale} {
				ctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
				_, err := nd.ReadIndexMode(ctx, mode)
				cancel()
				var nl ErrNotLeader
				switch {
				case err == nil:
					answered[id]++
				case !errors.As(err, &nl):
					t.Fatalf("%v read on node %d: %v", mode, id, err)
				}
			}
		}
	}
	snap := reg.Snapshot()
	var leases int64
	for id, nd := range c.nodes {
		node := strconv.Itoa(id)
		served := func(mode string) int64 {
			return snap.Counters[metrics.Label("raft_reads_served_total", "node", node, "mode", mode)]
		}
		lease, index, stale, _ := nd.ReadStats()
		leases += lease
		if served("lease") != lease || served("readindex") != index || served("stale") != stale {
			t.Fatalf("node %d counted lease/readindex/stale %d/%d/%d, ReadStats names %d/%d/%d",
				id, served("lease"), served("readindex"), served("stale"), lease, index, stale)
		}
		if total := lease + index + stale; total != answered[id] {
			t.Fatalf("node %d answered %d reads and counted %d", id, answered[id], total)
		}
		if lat := snap.Histograms[metrics.Label("raft_read_latency_seconds", "node", node)]; lat.Count != answered[id] {
			t.Fatalf("node %d answered %d reads and took %d latency samples", id, answered[id], lat.Count)
		}
	}
	if _, index, _, _ := c.nodes[leader].ReadStats(); leases == 0 || index == 0 {
		t.Fatalf("the reads never took the lease path (%d) or a round on the leader (%d)", leases, index)
	}
}
