package raft

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"ooc/internal/checker"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// withLease enables leader leases on every node of a test cluster.
func withLease(d time.Duration) func(*Config) {
	return func(cfg *Config) { cfg.LeaseDuration = d }
}

func TestReadConsistencyParseRoundTrip(t *testing.T) {
	for _, rc := range []ReadConsistency{ReadLinearizable, ReadLease, ReadStale} {
		got, err := ParseReadConsistency(rc.String())
		if err != nil || got != rc {
			t.Fatalf("round trip %v: got %v, %v", rc, got, err)
		}
	}
	if _, err := ParseReadConsistency("bogus"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

// TestReadIndexObservesCommittedWrite is the basic fast-path contract: a
// ReadIndex issued after a write completes must return an index covering
// that write, and the local state machine must show it.
func TestReadIndexObservesCommittedWrite(t *testing.T) {
	c := newCluster(t, 3, 1)
	leader := c.waitLeader()
	idx := c.propose(KVCommand{Op: "set", Key: "x", Value: "1"})
	c.waitApplied(idx, leader)

	rctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
	defer cancel()
	readIdx, err := c.nodes[leader].ReadIndex(rctx)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if readIdx < idx {
		t.Fatalf("read index %d does not cover committed write at %d", readIdx, idx)
	}
	if v, ok := c.kvs[leader].Get("x"); !ok || v != "1" {
		t.Fatalf("leader state machine: got %q,%v want \"1\"", v, ok)
	}
	if _, index, _, _ := c.nodes[leader].ReadStats(); index == 0 {
		t.Fatal("read was not attributed to the ReadIndex path")
	}
	c.checkElectionSafety()
}

// TestReadIndexPendingCommit issues the read while the write is still in
// flight (invoked after Propose returned, i.e. after the entry is in the
// leader's log): once both complete, the read index must not be behind
// the commit the leader had already acknowledged replicating.
func TestReadIndexPendingCommit(t *testing.T) {
	c := newCluster(t, 3, 2)
	leader := c.waitLeader()
	warm := c.propose(KVCommand{Op: "set", Key: "warm", Value: "1"})
	c.waitApplied(warm, leader)

	idx, err := c.nodes[leader].Propose(c.ctx, KVCommand{Op: "set", Key: "y", Value: "2"})
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	// The read is invoked with the write pending; it must still observe a
	// consistent snapshot — and once the write's index is covered by the
	// returned read index, the value must be visible locally.
	rctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
	defer cancel()
	readIdx, err := c.nodes[leader].ReadIndex(rctx)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if readIdx >= idx {
		if v, ok := c.kvs[leader].Get("y"); !ok || v != "2" {
			t.Fatalf("read index %d covers write %d but value invisible (%q,%v)", readIdx, idx, v, ok)
		}
	}
	c.checkElectionSafety()
}

// TestFollowerReadForwards exercises the relay path: a follower read
// forwards to the leader for a confirmed index, waits for its own apply
// to catch up, and serves locally.
func TestFollowerReadForwards(t *testing.T) {
	c := newCluster(t, 3, 3)
	leader := c.waitLeader()
	idx := c.propose(KVCommand{Op: "set", Key: "k", Value: "v"})
	c.waitApplied(idx, 0, 1, 2)

	follower := (leader + 1) % 3
	rctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
	defer cancel()
	readIdx, err := c.nodes[follower].ReadIndex(rctx)
	if err != nil {
		t.Fatalf("follower ReadIndex: %v", err)
	}
	if readIdx < idx {
		t.Fatalf("forwarded read index %d does not cover write at %d", readIdx, idx)
	}
	if v, ok := c.kvs[follower].Get("k"); !ok || v != "v" {
		t.Fatalf("follower state machine: got %q,%v want \"v\"", v, ok)
	}
	if _, _, _, fwd := c.nodes[follower].ReadStats(); fwd == 0 {
		t.Fatal("follower did not record a forwarded read")
	}
	c.checkElectionSafety()
}

// TestLeaseServesWithoutQuorumRound warms a lease and checks that
// lease-mode reads are attributed to the lease path (no confirmation
// round), while linearizable reads keep taking ReadIndex rounds.
func TestLeaseServesWithoutQuorumRound(t *testing.T) {
	c := newCluster(t, 3, 4, withLease(testElection/2))
	leader := c.waitLeader()
	idx := c.propose(KVCommand{Op: "set", Key: "a", Value: "b"})
	c.waitApplied(idx, leader)
	// Let at least one heartbeat-tick round confirm so the lease is held.
	time.Sleep(3 * testHeartbeat)

	rctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
	defer cancel()
	var leaseServed bool
	for i := 0; i < 20; i++ {
		if _, err := c.nodes[leader].ReadIndexMode(rctx, ReadLease); err != nil {
			t.Fatalf("lease read %d: %v", i, err)
		}
		if lease, _, _, _ := c.nodes[leader].ReadStats(); lease > 0 {
			leaseServed = true
			break
		}
		time.Sleep(testHeartbeat)
	}
	if !leaseServed {
		t.Fatal("no read was ever served from the lease")
	}

	if _, err := c.nodes[leader].ReadIndex(rctx); err != nil {
		t.Fatalf("linearizable read: %v", err)
	}
	if _, index, _, _ := c.nodes[leader].ReadStats(); index == 0 {
		t.Fatal("linearizable read was not attributed to the ReadIndex path")
	}
	c.checkElectionSafety()
}

// TestDeposedLeaderDoesNotServeStaleReads is the lease-safety regression:
// partition the leader away, let the majority elect a successor and
// commit a new value, and verify the deposed leader — lease long
// expired — cannot serve a read of the old state.
func TestDeposedLeaderDoesNotServeStaleReads(t *testing.T) {
	c := newCluster(t, 5, 5, withLease(testElection/2))
	old := c.waitLeader()
	idx := c.propose(KVCommand{Op: "set", Key: "k", Value: "old"})
	c.waitApplied(idx, old)

	// Isolate the old leader with no followers.
	var rest []int
	for id := 0; id < 5; id++ {
		if id != old {
			rest = append(rest, id)
		}
	}
	c.nw.Partition([]int{old}, rest)

	// Majority side elects a successor and moves on.
	var newLeader int
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no new leader in majority partition")
		}
		found := false
		for _, id := range rest {
			if st := c.nodes[id].Status(); st.State == Leader && st.Term > c.nodes[old].Status().Term-1 {
				newLeader, found = id, true
			}
		}
		if found && newLeader != old {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	idx2, err := c.nodes[newLeader].Propose(c.ctx, KVCommand{Op: "set", Key: "k", Value: "new"})
	if err != nil {
		t.Fatalf("propose on new leader: %v", err)
	}
	c.waitApplied(idx2, newLeader)

	// The old leader's lease expired long ago (testElection/2 with no
	// confirmable rounds since the partition). A lease read must NOT be
	// served from local state: it falls back to a confirmation round that
	// can never succeed, so it must time out or fail — never return "old".
	time.Sleep(2 * testElection) // well past any lease the old leader held
	rctx, cancel := context.WithTimeout(context.Background(), 4*testElection)
	_, rerr := c.nodes[old].ReadIndexMode(rctx, ReadLease)
	cancel()
	if rerr == nil {
		t.Fatal("deposed leader served a lease read while partitioned from the quorum")
	}
	if !errors.Is(rerr, context.DeadlineExceeded) {
		var nl ErrNotLeader
		if !errors.As(rerr, &nl) && !errors.Is(rerr, ErrStopped) {
			t.Fatalf("unexpected error from deposed leader read: %v", rerr)
		}
	}

	// After healing, the deposed leader catches up and a linearizable
	// read through it (forwarded or local after a step-down) sees "new".
	c.nw.Heal()
	c.waitApplied(idx2, old)
	rctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := c.nodes[old].ReadIndex(rctx2); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
	if v, _ := c.kvs[old].Get("k"); v != "new" {
		t.Fatalf("post-heal read observed %q, want \"new\"", v)
	}
	c.checkElectionSafety()
}

// TestReadHistoryLinearizable runs a concurrent closed-loop mix through
// the Client — one writer per key, several readers per mode — and feeds
// the timestamped history to the register-linearizability checker.
func TestReadHistoryLinearizable(t *testing.T) {
	for _, mode := range []ReadConsistency{ReadLinearizable, ReadLease} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			var opts []func(*Config)
			if mode == ReadLease {
				opts = append(opts, withLease(testElection/2))
			}
			c := newCluster(t, 3, 6+uint64(mode), opts...)
			c.waitLeader()
			client, err := NewClient(c.nodes)
			if err != nil {
				t.Fatal(err)
			}

			var (
				mu      sync.Mutex
				history []checker.RWOp
			)
			record := func(op checker.RWOp) {
				mu.Lock()
				history = append(history, op)
				mu.Unlock()
			}
			start := time.Now()
			runCtx, cancel := context.WithTimeout(c.ctx, 300*time.Millisecond)
			var wg sync.WaitGroup

			// One closed-loop writer: versions increase, writes never overlap.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := int64(1); ; v++ {
					invoke := time.Since(start).Nanoseconds()
					_, err := client.SubmitWait(runCtx, KVCommand{Op: "set", Key: "x", Value: strconv.FormatInt(v, 10)})
					ret := time.Since(start).Nanoseconds()
					if err != nil {
						// Window closed mid-write with the outcome unknown —
						// the command may still have committed, and a read may
						// legitimately observe it. Record it as the (final)
						// write completing at the window edge; if it never
						// committed, an extra never-observed write is harmless.
						record(checker.RWOp{Key: "x", Version: v, Invoke: invoke, Return: ret})
						return
					}
					record(checker.RWOp{Key: "x", Version: v, Invoke: invoke, Return: ret})
				}
			}()
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						invoke := time.Since(start).Nanoseconds()
						val, found, err := client.ReadWith(runCtx, "x", mode)
						if err != nil {
							return
						}
						ret := time.Since(start).Nanoseconds()
						var ver int64
						if found {
							ver, err = strconv.ParseInt(val, 10, 64)
							if err != nil {
								t.Errorf("unparseable value %q", val)
								return
							}
						}
						record(checker.RWOp{Read: true, Key: "x", Version: ver, Invoke: invoke, Return: ret})
					}
				}()
			}
			wg.Wait()
			cancel()

			reads := 0
			for _, op := range history {
				if op.Read {
					reads++
				}
			}
			if reads == 0 || reads == len(history) {
				t.Fatalf("degenerate history: %d reads of %d ops", reads, len(history))
			}
			if rep := checker.CheckRegisterLinearizable(history); !rep.Ok() {
				t.Fatalf("linearizability violated (%d ops): %v", len(history), rep.Violations[0])
			}
			c.checkElectionSafety()
		})
	}
}

// TestStaleReadMode sanity-checks the uncoordinated mode: it serves from
// any node without error and is attributed to the stale path.
func TestStaleReadMode(t *testing.T) {
	c := newCluster(t, 3, 9)
	leader := c.waitLeader()
	idx := c.propose(KVCommand{Op: "set", Key: "s", Value: "1"})
	c.waitApplied(idx, 0, 1, 2)
	for id := range c.nodes {
		rctx, cancel := context.WithTimeout(c.ctx, time.Second)
		if _, err := c.nodes[id].ReadIndexMode(rctx, ReadStale); err != nil {
			t.Fatalf("stale read on node %d: %v", id, err)
		}
		cancel()
		if _, _, stale, _ := c.nodes[id].ReadStats(); stale == 0 {
			t.Fatalf("node %d read not attributed to the stale path", id)
		}
	}
	_ = leader
	c.checkElectionSafety()
}

// TestReadIndexFloorIsTermStart: a new leader's commit index lags the
// entries its predecessor committed until its own no-op commits, so a
// read it takes before then is answered at max(commit, termStart) — the
// no-op's index, above every entry committed before the read — and its
// caller waits until the state machine has applied that far. The read
// is not parked: its probe leaves in the pass that took it.
func TestReadIndexFloorIsTermStart(t *testing.T) {
	st := NewMemStorage()
	if err := st.SetState(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.TruncateAndAppend(0, entries(1, 1, 1)); err != nil { // committed by term 1's leader
		t.Fatal(err)
	}
	nw := netsim.New(3, netsim.WithFIFO())
	nd, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}, Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	win(nd)
	nd.flush()
	received(nw, 1)
	received(nw, 2)
	termStart := nd.rep.log.lastIndex() // the no-op
	ch := make(chan proposeReply, 1)
	nd.handleReadBatch([]readReq{{mode: ReadLinearizable, reply: ch}})
	nd.flush()
	id := 0
	for _, m := range received(nw, 1) {
		if ae, ok := m.(AppendEntries); ok {
			id = ae.ReadID
		}
	}
	if id == 0 || nd.rep.commit >= termStart {
		t.Fatalf("commit %d, no-op at %d; the read's probe did not leave in its pass (read id %d)", nd.rep.commit, termStart, id)
	}
	// Peer 1 echoes the round holding the old entries only: the round
	// confirms, and nothing of term 2 commits.
	nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntriesReply{Term: nd.el.term, Success: true, MatchIndex: 3, ReadID: id}})
	nd.flush()
	var r proposeReply
	select {
	case r = <-ch:
	default:
		t.Fatal("the confirmed read was not answered in the pass that confirmed it")
	}
	if r.err != nil || r.index < termStart {
		t.Fatalf("read answered %+v, want an index of at least %d", r, termStart)
	}
	if nd.rep.commit != 0 {
		t.Fatalf("commit %d in term %d off a term-1 majority", nd.rep.commit, nd.el.term)
	}
	// The caller's half (ReadIndexMode): it waits on the applied index.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	nd.applied.advance(termStart - 1)
	if _, err := nd.AwaitApplied(done, r.index); err == nil {
		t.Fatalf("released with the state machine at %d, below the no-op at %d", termStart-1, termStart)
	}
	nd.applied.advance(termStart)
	if idx, err := nd.AwaitApplied(done, r.index); err != nil || idx < r.index {
		t.Fatalf("once applied through the no-op: applied %d, %v, want index %d", idx, err, r.index)
	}
}

// TestRestartedFollowerIgnoresEarlierRelayReplies: a follower that
// restarts numbers its forwarded reads past those of its earlier life,
// so the leader's late answer to one of those cannot answer a read of
// the new life with an index read before it began.
func TestRestartedFollowerIgnoresEarlierRelayReplies(t *testing.T) {
	st := NewMemStorage()
	forward := func() (*Node, chan proposeReply, int64) {
		nw := netsim.New(3, netsim.WithFIFO())
		nd, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}, Storage: st})
		if err != nil {
			t.Fatal(err)
		}
		nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntries{Term: 1, LeaderID: 1}})
		ch := make(chan proposeReply, 1)
		nd.handleReadBatch([]readReq{{mode: ReadLinearizable, reply: ch}})
		nd.flush()
		for _, m := range received(nw, 1) {
			if req, ok := m.(ReadIndexRequest); ok {
				return nd, ch, req.ID
			}
		}
		t.Fatal("the read was not forwarded to the leader")
		return nil, nil, 0
	}
	_, _, before := forward()
	nd, ch, after := forward()
	nd.handleMessage(msgnet.Message{From: 1, Payload: ReadIndexReply{Term: 1, ID: before, Success: true, LeaderID: 1}})
	nd.flush()
	if len(ch) != 0 || before == after {
		t.Fatalf("the reply to request %d of the earlier life answered request %d", before, after)
	}
}

// TestOneNodeGroupAnswersAReadBatch: a one-node group is its own quorum,
// so each read's round confirms as it opens and the next read of the
// same pass opens another. The loop answers each at confirmation, with
// nothing applied: the wait for the apply is the caller's.
func TestOneNodeGroupAnswersAReadBatch(t *testing.T) {
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(1).Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{},
		LeaseDuration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	win(nd)
	nd.applyReplication(nd.rep.heartbeat(nd.cfg.Clock.Now())) // a confirmed lease round in this pass
	reqs := make([]readReq, 3)
	for i := range reqs {
		reqs[i] = readReq{mode: ReadLinearizable, reply: make(chan proposeReply, 1)}
	}
	nd.handleReadBatch(reqs)
	nd.flush()
	for i, r := range reqs {
		if rep := <-r.reply; rep.err != nil || rep.index != nd.rep.commit {
			t.Fatalf("read %d: %+v, want index %d", i, rep, nd.rep.commit)
		}
	}
}
