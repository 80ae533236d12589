package raft

// Tests for claim-based fencing (DESIGN §3.3, §3.7): a staged message
// waits for exactly what it claims about this node's disk. The cluster
// tests run ManualCampaign nodes over netsim with a tap on every message,
// one node's disk held at the barrier by gatedStorage, and every history
// through checker.CheckRegisterLinearizable.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"ooc/internal/checker"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// wireTap records every message handed to the network, in send order.
type wireTap struct {
	mu   sync.Mutex
	msgs []msgnet.Message
}

func (w *wireTap) hook(m msgnet.Message) []msgnet.Message {
	w.mu.Lock()
	w.msgs = append(w.msgs, m)
	w.mu.Unlock()
	return []msgnet.Message{m}
}

// mark returns the tap's current length: a position to read on from.
func (w *wireTap) mark() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.msgs)
}

// appendReplies returns the AppendEntriesReply messages from→to recorded
// at or after position pos.
func (w *wireTap) appendReplies(pos, from, to int) []AppendEntriesReply {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []AppendEntriesReply
	for _, m := range w.msgs[pos:] {
		if r, ok := m.Payload.(AppendEntriesReply); ok && m.From == from && m.To == to {
			out = append(out, r)
		}
	}
	return out
}

// fenceCluster is pipeCluster with elections on request only and a tap
// on the wire. It reuses pipeCluster's helpers; boot and restart are its
// own because the node configuration differs.
type fenceCluster struct {
	*pipeCluster
	tap   *wireTap
	start time.Time
	mu    sync.Mutex
	hist  []checker.RWOp
}

func newFenceCluster(t *testing.T, n int, seed uint64) *fenceCluster {
	t.Helper()
	tap := &wireTap{}
	c := &fenceCluster{
		pipeCluster: &pipeCluster{
			t:       t,
			nw:      netsim.New(n, netsim.WithSeed(seed), netsim.WithFIFO(), netsim.WithTamper(tap.hook)),
			rng:     sim.NewRNG(seed),
			stores:  make([]*MemStorage, n),
			gates:   make([]*gatedStorage, n),
			kvs:     make([]*KVStore, n),
			nodes:   make([]*Node, n),
			cancels: make([]context.CancelFunc, n),
		},
		tap:   tap,
		start: time.Now(),
	}
	for id := 0; id < n; id++ {
		c.stores[id] = NewMemStorage()
		c.boot(id)
	}
	t.Cleanup(func() {
		for id, cancel := range c.cancels {
			c.gates[id].release()
			cancel()
		}
	})
	return c
}

func (c *fenceCluster) boot(id int) {
	c.t.Helper()
	c.boots++
	c.kvs[id] = &KVStore{} // volatile: a restart reapplies the persisted log
	c.gates[id] = newGatedStorage(c.stores[id])
	node, err := NewNode(Config{
		ID:                id,
		Endpoint:          c.nw.Node(id),
		RNG:               c.rng.Fork(uint64(id) + 1000*uint64(c.boots)),
		ElectionTimeout:   testElection,
		HeartbeatInterval: testHeartbeat,
		ManualCampaign:    true,
		StateMachine:      c.kvs[id],
		Storage:           c.gates[id],
	})
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.nodes[id], c.cancels[id] = node, cancel
	node.Start(ctx)
}

func (c *fenceCluster) restart(id int) {
	c.t.Helper()
	c.nw.Restart(id)
	c.boot(id)
}

// poll waits for cond, failing the test with what after ten seconds.
func (c *fenceCluster) poll(what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			for id, nd := range c.nodes {
				c.t.Logf("node %d: %v, disk through %d", id, nd.Status(), c.durable(id))
			}
			c.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// elect makes id campaign and waits until it leads.
func (c *fenceCluster) elect(id int) {
	c.t.Helper()
	c.nodes[id].Campaign(nil)
	c.poll(fmt.Sprintf("node %d to lead", id), func() bool { return c.nodes[id].Status().State == Leader })
}

// durable reports the highest log index node id's disk holds.
func (c *fenceCluster) durable(id int) int {
	c.t.Helper()
	ps, err := c.stores[id].Load()
	if err != nil {
		c.t.Fatal(err)
	}
	return ps.SnapIndex + len(ps.Entries)
}

func (c *fenceCluster) ns() int64 { return time.Since(c.start).Nanoseconds() }

func (c *fenceCluster) record(op checker.RWOp) {
	c.mu.Lock()
	c.hist = append(c.hist, op)
	c.mu.Unlock()
}

// write proposes x=version on node id and returns the entry's index once
// the proposal is accepted (in the leader's log and on its disk — not
// yet committed). The caller records the write when it has seen it
// applied.
func (c *fenceCluster) write(id, version int) int {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	idx, err := c.nodes[id].Propose(ctx, KVCommand{Op: "set", Key: "x", Value: strconv.Itoa(version)})
	if err != nil {
		c.t.Fatalf("propose x=%d on node %d: %v", version, id, err)
	}
	return idx
}

// writeEverywhere commits x=version through node id, waits until every
// node in ids has applied it and holds it on disk, and records the write.
func (c *fenceCluster) writeEverywhere(id, version int, ids ...int) int {
	c.t.Helper()
	inv := c.ns()
	idx := c.write(id, version)
	c.waitValue("x", strconv.Itoa(version), ids...)
	c.record(checker.RWOp{Key: "x", Version: int64(version), Invoke: inv, Return: c.ns()})
	for _, n := range ids {
		c.poll(fmt.Sprintf("node %d's disk to reach %d", n, idx), func() bool { return c.durable(n) >= idx })
	}
	return idx
}

// read serves one ReadIndex read of x on node id within d and records it.
func (c *fenceCluster) read(id int, d time.Duration) (version, index int, err error) {
	inv := c.ns()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	index, err = c.nodes[id].ReadIndex(ctx)
	if err != nil {
		return 0, 0, err
	}
	v, _ := c.kvs[id].Get("x")
	version, _ = strconv.Atoi(v)
	c.record(checker.RWOp{Read: true, Key: "x", Version: int64(version), Invoke: inv, Return: c.ns()})
	return version, index, nil
}

func (c *fenceCluster) checkHistory() {
	c.t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep := checker.CheckRegisterLinearizable(c.hist); !rep.Ok() {
		c.t.Fatalf("history not linearizable (%d ops): %v", len(c.hist), rep.Violations[0])
	}
}

// gatedFollower is the stage the probe and power-cut tests share: node 0
// leads three nodes, x=1 is on every disk at index idx1, node 2 is cut
// off so that commit needs node 1, and node 1's disk is held at the
// barrier with x=2 (index idx2) in its memory and in its persist queue.
type gatedFollower struct {
	*fenceCluster
	idx1, idx2 int
	inv2       int64 // x=2's invocation time
	pos        int   // tap position when the gate closed
}

func stageGatedFollower(t *testing.T, seed uint64) *gatedFollower {
	t.Helper()
	c := newFenceCluster(t, 3, seed)
	c.elect(0)
	g := &gatedFollower{fenceCluster: c}
	g.idx1 = c.writeEverywhere(0, 1, 0, 1, 2)
	c.nw.Partition([]int{0, 1}, []int{2})
	c.gates[1].block()
	g.pos = c.tap.mark()
	g.inv2 = c.ns()
	g.idx2 = c.write(0, 2) // accepted: on the leader's disk, on nobody else's
	c.poll("node 1 to take x=2 into memory", func() bool { return c.nodes[1].Status().LogLength >= g.idx2 })
	if d := c.durable(1); d != g.idx1 {
		t.Fatalf("node 1's disk holds through %d despite the gate, want %d", d, g.idx1)
	}
	return g
}

// readWhileGated serves a read on the leader while node 1's fsync is
// parked and checks what made that possible: node 1 echoed the probe,
// acknowledging no more than its disk held, and the leader counted the
// echo for leadership but not for commit.
func (g *gatedFollower) readWhileGated() {
	g.t.Helper()
	version, index, err := g.read(0, 5*time.Second)
	if err != nil {
		g.t.Fatalf("read with the only reachable follower's disk gated: %v", err)
	}
	if version != 1 || index != g.idx1 {
		g.t.Fatalf("read x=%d at index %d, want x=1 at %d", version, index, g.idx1)
	}
	echoed := false
	for _, r := range g.tap.appendReplies(g.pos, 1, 0) {
		if r.Success && r.MatchIndex > g.idx1 {
			g.t.Fatalf("node 1 acknowledged through %d with its disk at %d: %v", r.MatchIndex, g.idx1, r)
		}
		if r.ReadID > 0 {
			echoed = true
		}
	}
	if !echoed {
		g.t.Fatal("the read was confirmed, but no probe echo from node 1 is on the wire")
	}
	if st := g.nodes[0].Status(); st.CommitIndex != g.idx1 {
		g.t.Fatalf("leader commit index %d, want %d: it advanced on an ack no disk backs", st.CommitIndex, g.idx1)
	}
}

// Safety clause (a) and (2): a probe is answered while the follower's
// fsync is still running, its MatchIndex is at most what that disk
// holds, and the leader serves the read without advancing commit. The
// reply to the entry-carrying append stays behind the gate.
func TestProbeAnsweredWhileFollowerDiskGated(t *testing.T) {
	g := stageGatedFollower(t, 131)
	g.readWhileGated()

	g.gates[1].release()
	g.waitValue("x", "2", 0, 1)
	g.record(checker.RWOp{Key: "x", Version: 2, Invoke: g.inv2, Return: g.ns()})
	acked := false
	for _, r := range g.tap.appendReplies(g.pos, 1, 0) {
		if r.Success && r.MatchIndex >= g.idx2 {
			acked = true
		}
	}
	if !acked {
		t.Fatalf("x=2 committed without node 1 ever acknowledging index %d", g.idx2)
	}
	if version, _, err := g.read(0, 5*time.Second); err != nil || version != 2 {
		t.Fatalf("read after the gate opened: x=%d, %v", version, err)
	}
	g.checkHistory()
}

// Safety clause (c): the power fails right after the early ack. The
// follower comes back without its unsynced suffix, and nothing it ever
// acknowledged — hence nothing the leader's matchIndex ever held for it
// — exceeds what survived.
func TestPowerCutAfterEarlyAckLosesNothingAcknowledged(t *testing.T) {
	g := stageGatedFollower(t, 137)
	g.readWhileGated()

	g.gates[1].powerCut()
	g.crash(1)
	survived := g.durable(1)
	if survived != g.idx1 {
		t.Fatalf("node 1's disk survived through %d, want %d (x=2 was never synced)", survived, g.idx1)
	}
	for _, r := range g.tap.appendReplies(0, 1, 0) {
		if r.Success && r.MatchIndex > survived {
			t.Fatalf("node 1 acknowledged through %d, its disk survived through %d: %v", r.MatchIndex, survived, r)
		}
	}
	if st := g.nodes[0].Status(); st.CommitIndex != g.idx1 {
		t.Fatalf("leader commit index %d, want %d", st.CommitIndex, g.idx1)
	}

	g.restart(1)
	g.nw.Heal()
	g.waitValue("x", "2", 0, 1, 2)
	g.record(checker.RWOp{Key: "x", Version: 2, Invoke: g.inv2, Return: g.ns()})
	if version, _, err := g.read(0, 5*time.Second); err != nil || version != 2 {
		t.Fatalf("read after recovery: x=%d, %v", version, err)
	}
	g.checkHistory()
}

// Safety clause (b) and (3), first half: a follower whose term bump is
// still in its persist queue says nothing in the new term — no vote, no
// append reply — until the SetState lands, however many heartbeats it
// is sent meanwhile.
func TestRepliesWaitForTermOnDisk(t *testing.T) {
	c := newFenceCluster(t, 3, 139)
	c.elect(0)
	c.writeEverywhere(0, 1, 0, 1, 2)
	oldTerm := c.nodes[0].Status().Term

	c.gates[2].block()
	pos := c.tap.mark()
	c.elect(1) // node 0 votes; node 2's vote is stuck behind its SetState
	newTerm := c.nodes[1].Status().Term
	inv := c.ns()
	idx2 := c.write(1, 2)
	c.waitValue("x", "2", 0, 1)
	c.record(checker.RWOp{Key: "x", Version: 2, Invoke: inv, Return: c.ns()})
	if version, _, err := c.read(1, 5*time.Second); err != nil || version != 2 {
		t.Fatalf("read on the new leader: x=%d, %v", version, err)
	}
	// Node 2 has adopted the term and taken the new leader's entries in
	// memory; every reply it owes is staged.
	c.poll("node 2 to take x=2 into memory", func() bool {
		st := c.nodes[2].Status()
		return st.Term == newTerm && st.LogLength >= idx2
	})
	if ps, _ := c.stores[2].Load(); ps.Term != oldTerm {
		t.Fatalf("node 2's disk holds term %d despite the gate, want %d", ps.Term, oldTerm)
	}
	spoke := func() (votes, acks int) {
		c.tap.mu.Lock()
		defer c.tap.mu.Unlock()
		for _, m := range c.tap.msgs[pos:] {
			if m.From != 2 {
				continue
			}
			switch p := m.Payload.(type) {
			case RequestVoteReply:
				if p.Term >= newTerm {
					votes++
				}
			case AppendEntriesReply:
				if p.Term >= newTerm {
					acks++
				}
			}
		}
		return votes, acks
	}
	if votes, acks := spoke(); votes+acks > 0 {
		t.Fatalf("node 2 sent %d votes and %d append replies in term %d, which its disk does not hold", votes, acks, newTerm)
	}

	c.gates[2].release()
	c.poll("node 2 to speak in the new term", func() bool { _, acks := spoke(); return acks > 0 })
	if ps, _ := c.stores[2].Load(); ps.Term != newTerm {
		t.Fatalf("node 2 spoke in term %d with term %d on disk", newTerm, ps.Term)
	}
	c.waitValue("x", "2", 2)
	c.checkHistory()
}

// Safety clause (b) and (1), second half: a deposed leader cut off with
// a minority never confirms a read, although its one reachable follower
// echoes every probe at once (that follower's disk is gated mid-append,
// so the echoes are the early kind). What stops the read is quorum
// intersection — the majority side's votes were on disk before they left
// — not any fsync on the minority side.
func TestDeposedLeaderInMinorityNeverConfirmsRead(t *testing.T) {
	c := newFenceCluster(t, 5, 149)
	c.elect(0)
	c.writeEverywhere(0, 1, 0, 1, 2, 3, 4)
	term := c.nodes[0].Status().Term

	c.nw.Partition([]int{0, 1}, []int{2, 3, 4})
	c.gates[1].block()
	pos := c.tap.mark()
	// Something for node 1's disk to be busy with; it can never commit.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	stray, err := c.nodes[0].Propose(ctx, KVCommand{Op: "set", Key: "stray", Value: "v"})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	c.poll("node 1 to take the stray entry into memory", func() bool { return c.nodes[1].Status().LogLength >= stray })

	c.elect(2)
	inv := c.ns()
	c.write(2, 2)
	c.waitValue("x", "2", 2, 3, 4)
	c.record(checker.RWOp{Key: "x", Version: 2, Invoke: inv, Return: c.ns()})

	// x=2 is complete. A read the old leader served now would return 1.
	version, _, err := c.read(0, 300*time.Millisecond)
	if err == nil {
		t.Fatalf("deposed leader in a 2-of-5 minority confirmed a read (x=%d)", version)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read on the deposed leader: %v, want it to hang until the deadline", err)
	}
	if st := c.nodes[0].Status(); st.State != Leader || st.Term != term {
		t.Fatalf("node 0 is %v: the read was refused for some other reason than quorum", st)
	}
	echoed := false
	for _, r := range c.tap.appendReplies(pos, 1, 0) {
		if r.ReadID > 0 {
			echoed = true
		}
	}
	if !echoed {
		t.Fatal("node 1 never echoed the probe: the read failed for want of any ack, not for want of a quorum")
	}
	if version, _, err := c.read(2, 5*time.Second); err != nil || version != 2 {
		t.Fatalf("read on the new leader: x=%d, %v", version, err)
	}
	c.checkHistory()
}

// Safety clause (d), against a hand-operated leader: with an unrelated
// persist parked at the barrier, a retransmission of entries the disk
// already holds is acknowledged at once and in full, a heartbeat over
// the unsynced tail is acknowledged at once up to the durable index, and
// the reply to the append that is actually being synced waits. The
// raft_append_replies_total counters tell the two kinds apart.
func TestRetransmitOfDurableEntriesNotFenced(t *testing.T) {
	nw := netsim.New(2, netsim.WithSeed(7), netsim.WithFIFO())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gate := newGatedStorage(NewMemStorage())
	defer gate.release()
	reg := metrics.NewRegistry()
	node, err := NewNode(Config{
		ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(7),
		ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour, ManualCampaign: true,
		Storage: gate, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(ctx)
	leader := nw.Node(1)
	set := func(i int) Entry {
		return Entry{Term: 1, Command: KVCommand{Op: "set", Key: "k", Value: strconv.Itoa(i)}}
	}
	exchange := func(m AppendEntries) AppendEntriesReply {
		t.Helper()
		m.Term, m.LeaderID = 1, 1
		if err := leader.Send(0, m); err != nil {
			t.Fatal(err)
		}
		got, err := leader.Recv(ctx)
		if err != nil {
			t.Fatalf("no reply to %v: %v", m, err)
		}
		return got.Payload.(AppendEntriesReply)
	}

	first := AppendEntries{Entries: []Entry{set(1), set(2)}}
	if r := exchange(first); !r.Success || r.MatchIndex != 2 {
		t.Fatalf("first append: %v", r)
	}

	gate.block()
	if err := leader.Send(0, AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []Entry{set(3)}}); err != nil {
		t.Fatal(err)
	}
	// The network is FIFO and the node answers in order, so had the reply
	// to entry 3 left, it would be the next message here.
	if r := exchange(first); !r.Success || r.MatchIndex != 2 {
		t.Fatalf("retransmission of durable entries 1..2 behind a gated persist: %v, want an ack through 2", r)
	}
	if r := exchange(AppendEntries{PrevLogIndex: 3, PrevLogTerm: 1, ReadID: 9}); !r.Success || r.MatchIndex != 2 || r.ReadID != 9 {
		t.Fatalf("heartbeat over the unsynced tail: %v, want an echo of read 9 acknowledging through 2", r)
	}

	gate.release()
	got, err := leader.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := got.Payload.(AppendEntriesReply); !r.Success || r.MatchIndex != 3 {
		t.Fatalf("after the gate opened: %v, want the ack through 3", r)
	}
	// A fenced reply is counted as its persist run releases it.
	fenced := reg.Counter(metrics.Label("raft_append_replies_total", "node", "0", "fence", "persist"))
	free := reg.Counter(metrics.Label("raft_append_replies_total", "node", "0", "fence", "none"))
	if fenced.Value() != 2 || free.Value() != 2 {
		t.Fatalf("append replies counted: %d behind a persist, %d free; want 2 and 2", fenced.Value(), free.Value())
	}
}

// Safety clause (e): what every site that stages a message claims, and
// whether flush() lets it go with the node in that state. Handlers run
// on an unstarted node; flush() then either puts the message on the wire
// or into the persist request nobody is consuming. A row lists what is
// left of the pass's messages after the fold; no row stages, for one
// peer, a fenced message and an unfenced one that would fold.
func TestMessageClaims(t *testing.T) {
	one := []Entry{{Term: 1, Command: "a"}, {Term: 1, Command: "b"}}
	// follower returns a node in term 1 following node 1, log = one, the
	// first durable entries of it on disk and nothing in flight.
	follower := func(nd *Node, durable int) {
		nd.el.term, nd.el.leader = 1, 1
		nd.rep.log.entries = append([]Entry(nil), one...)
		nd.rep.durable = durable
	}
	leader := func(nd *Node) {
		win(nd)
		nd.outbox, nd.stateDirty, nd.pendingLog = nil, false, nil
		nd.rep.durable = nd.rep.log.lastIndex()
	}
	recv := func(nd *Node, from int, payload any) {
		nd.handleMessage(msgnet.Message{From: from, Payload: payload})
	}
	// The election rows drive the core's entry points, and the node
	// carries out what they return.
	elect := func(nd *Node, step func(e *election, now time.Time) elOut) {
		nd.applyElection(step(&nd.el, nd.cfg.Clock.Now()))
	}
	ask := func(nd *Node, m RequestVote) {
		elect(nd, func(e *election, now time.Time) elOut { return e.receive(1, m, now) })
	}
	type want struct {
		payload string // %T of the staged message, "(pre)" appended for a probe or its answer
		claim   claim
		fenced  bool
	}
	rows := []struct {
		name    string
		preVote bool
		stage   func(nd *Node)
		want    []want
	}{
		{"campaign: the bumped term and self-vote", false,
			func(nd *Node) { elect(nd, (*election).campaign) },
			[]want{{"raft.RequestVote", claim{state: true}, true}, {"raft.RequestVote", claim{state: true}, true}}},
		{"pre-vote probe", true,
			func(nd *Node) { elect(nd, (*election).tick) }, // an unstarted node's deadline is long past
			[]want{{"raft.RequestVote(pre)", claim{}, false}, {"raft.RequestVote(pre)", claim{}, false}}},
		{"pre-vote answer", false,
			func(nd *Node) { ask(nd, RequestVote{Term: 1, CandidateID: 1, Pre: true}) },
			[]want{{"raft.RequestVoteReply(pre)", claim{}, false}}},
		{"vote granted: the vote must be on disk first", false,
			func(nd *Node) { ask(nd, RequestVote{Term: 1, CandidateID: 1}) },
			[]want{{"raft.RequestVoteReply", claim{state: true}, true}}},
		{"vote refused in a term already on disk", false,
			func(nd *Node) { nd.el.term = 3; ask(nd, RequestVote{Term: 1, CandidateID: 1}) },
			[]want{{"raft.RequestVoteReply", claim{state: true}, false}}},
		{"append from a stale leader refused", false,
			func(nd *Node) { nd.el.term = 3; recv(nd, 1, AppendEntries{Term: 1, LeaderID: 1}) },
			[]want{{"raft.AppendEntriesReply", claim{state: true}, false}}},
		{"append in a term not yet on disk", false,
			func(nd *Node) { recv(nd, 1, AppendEntries{Term: 1, LeaderID: 1}) },
			[]want{{"raft.AppendEntriesReply", claim{state: true}, true}}},
		{"consistency-check rejection", false,
			func(nd *Node) {
				follower(nd, 2)
				recv(nd, 1, AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 5, PrevLogTerm: 1})
			},
			[]want{{"raft.AppendEntriesReply", claim{state: true}, false}}},
		{"entries appended: acknowledged through the new tail", false,
			func(nd *Node) {
				follower(nd, 2)
				recv(nd, 1, AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []Entry{{Term: 1, Command: "c"}}})
			},
			[]want{{"raft.AppendEntriesReply", claim{index: 3, state: true}, true}}},
		{"heartbeat over an unsynced tail: acknowledged through the disk", false,
			func(nd *Node) {
				follower(nd, 1)
				nd.pendingPersist = []pendingBatch{{target: 2}} // entry 2 is in flight
				recv(nd, 1, AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 2, PrevLogTerm: 1, ReadID: 4})
			},
			[]want{{"raft.AppendEntriesReply", claim{index: 1, state: true}, false}}},
		{"retransmission of durable entries", false,
			func(nd *Node) {
				follower(nd, 2)
				recv(nd, 1, AppendEntries{Term: 1, LeaderID: 1, Entries: one})
			},
			[]want{{"raft.AppendEntriesReply", claim{index: 2, state: true}, false}}},
		{"conflicting suffix replaced: the old entry stops counting as durable", false,
			func(nd *Node) {
				follower(nd, 2)
				nd.el.term = 2
				recv(nd, 1, AppendEntries{Term: 2, LeaderID: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []Entry{{Term: 2, Command: "z"}}})
			},
			[]want{{"raft.AppendEntriesReply", claim{index: 2, state: true}, true}}},
		{"snapshot installed over a longer durable log", false,
			func(nd *Node) {
				follower(nd, 2)
				recv(nd, 1, InstallSnapshot{Term: 1, LeaderID: 1, LastIncludedIndex: 1, LastIncludedTerm: 1})
			},
			[]want{{"raft.AppendEntriesReply", claim{index: 1, state: true}, true}}},
		{"stale snapshot: acknowledged through the commit index", false,
			func(nd *Node) {
				follower(nd, 1)
				nd.pendingPersist = []pendingBatch{{target: 2}}
				nd.rep.commit = 2 // the leader's commit ran ahead of this disk
				recv(nd, 1, InstallSnapshot{Term: 1, LeaderID: 1, LastIncludedIndex: 1, LastIncludedTerm: 1})
			},
			[]want{{"raft.AppendEntriesReply", claim{index: 2, state: true}, true}}},
		{"leader fan-out and probe", false,
			func(nd *Node) {
				leader(nd)
				nd.applyReplication(nd.rep.propose([]any{"c"}))
				nd.leaderRead(readWaiter{ch: make(chan proposeReply, 1)}, time.Time{})
			},
			// Each peer's probe folds into its entries.
			[]want{{"raft.AppendEntries", claim{}, false}, {"raft.AppendEntries", claim{}, false}}},
		{"snapshot sent to a laggard", false,
			func(nd *Node) {
				leader(nd)
				nd.rep.compact(1, nil)
				nd.rep.peers[1], nd.rep.peers[2] = progress{next: 1}, progress{next: 2, match: 1}
				tick(nd) // a read round's probe passes the laggard by (TestReadRoundPassesALaggardBy)
			},
			[]want{{"raft.InstallSnapshot", claim{}, false}, {"raft.AppendEntries", claim{}, false}}},
		{"read forwarded to the leader", false,
			func(nd *Node) { follower(nd, 2); nd.forwardRead(readWaiter{ch: make(chan proposeReply, 1)}) },
			[]want{{"raft.ReadIndexRequest", claim{}, false}}},
		{"forwarded read refused", false,
			func(nd *Node) { follower(nd, 2); recv(nd, 2, ReadIndexRequest{Term: 1, ID: 7}) },
			[]want{{"raft.ReadIndexReply", claim{}, false}}},
		{"forwarded read answered", false,
			func(nd *Node) { leader(nd); nd.resolveRead(readWaiter{from: 1, id: 7}, 1, false) },
			[]want{{"raft.ReadIndexReply", claim{}, false}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nw := netsim.New(3, netsim.WithFIFO())
			nd, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1),
				PreVote: row.preVote, StateMachine: &KVStore{}, Storage: NewMemStorage()})
			if err != nil {
				t.Fatal(err)
			}
			row.stage(nd)
			said := nd.fold(slices.Clone(nd.outbox))
			if len(said) != len(row.want) {
				t.Fatalf("staged %d messages, %d after the fold, want %d: %v", len(nd.outbox), len(said), len(row.want), nd.outbox)
			}
			for i, w := range row.want {
				got := fmt.Sprintf("%T", said[i].payload)
				if rv, ok := said[i].payload.(RequestVote); ok && rv.Pre {
					got += "(pre)"
				}
				if rv, ok := said[i].payload.(RequestVoteReply); ok && rv.Pre {
					got += "(pre)"
				}
				if got != w.payload || said[i].claim != w.claim {
					t.Fatalf("message %d: %s claiming %+v, want %s claiming %+v", i, got, said[i].claim, w.payload, w.claim)
				}
			}
			nd.flush()
			sent := 0
			for _, peer := range []int{1, 2} {
				for {
					if _, ok, _ := nw.Node(peer).TryRecv(); !ok {
						break
					}
					sent++
				}
			}
			var held []outMsg
			select {
			case req := <-nd.persistQ:
				held = req.msgs
			default:
			}
			wantHeld := 0
			for _, w := range row.want {
				if w.fenced {
					wantHeld++
				}
			}
			if len(held) != wantHeld || sent != len(row.want)-wantHeld {
				t.Fatalf("flush sent %d and held %d behind the persist, want %d and %d", sent, len(held), len(row.want)-wantHeld, wantHeld)
			}
		})
	}
}

// leaderSim is a 3-node stepSim without leases, whose node 0 has won an
// election and brought both followers up to date.
func leaderSim(seed uint64) *stepSim {
	s := newStepSim(3, seed)
	s.cfg.LeaseDuration = 0 // every read takes a round
	for id := range s.nodes {
		s.boot(id)
	}
	s.do(action{kind: actCampaign, who: 0})
	s.quiet()
	return s
}

// deliverAll delivers every message on s's wire from → to, in order.
func deliverAll(s *stepSim, from, to int) {
	for {
		i := slices.IndexFunc(s.wire, func(m simMsg) bool { return m.from == from && m.to == to })
		if i < 0 {
			return
		}
		s.do(action{kind: actDeliver, who: i})
	}
}

// onWire returns the payloads on s's wire from → to.
func onWire(s *stepSim, from, to int) (out []any) {
	for _, m := range s.wire {
		if m.from == from && m.to == to {
			out = append(out, m.payload)
		}
	}
	return out
}

// A follower's replies to three pipelined appends, released by one
// persist run, leave as one AppendEntriesReply: it carries the last
// MatchIndex and the highest ReadID, and the leader ends where the three
// replies, released one run each, leave it.
func TestPipelinedRepliesFoldIntoOne(t *testing.T) {
	run := func(oneRun bool) (*stepSim, []any) {
		s := leaderSim(5)
		for range 3 { // a proposal and a read a pass: each append carries a new round id
			props, reads := s.proposals(0, 1), s.reads(0, 1)
			s.step(0, func(nd *Node) { nd.handleProposeBatch(props); nd.handleReadBatch(reads) })
		}
		deliverAll(s, 0, 1)
		if q := len(s.nodes[1].queue); q != 3 {
			t.Fatalf("follower staged %d persists, want 3", q)
		}
		for len(s.nodes[1].queue) > 0 {
			k := 1
			if oneRun {
				k = 3
			}
			s.do(action{kind: actPersist, who: 1, arg: k})
		}
		replies := onWire(s, 1, 0)
		deliverAll(s, 1, 0)
		if s.fail != "" {
			t.Fatal(s.fail)
		}
		return s, replies
	}
	s, folded := run(true)
	nd := s.nodes[0].nd
	if len(folded) != 1 {
		t.Fatalf("one run released %d append replies, want 1: %v", len(folded), folded)
	}
	if r := folded[0].(AppendEntriesReply); !r.Success || r.MatchIndex != nd.rep.log.lastIndex() || r.ReadID != nd.rep.readSeq {
		t.Fatalf("the folded reply is %v, want a success through %d echoing read %d", r, nd.rep.log.lastIndex(), nd.rep.readSeq)
	}
	apart, three := run(false)
	if len(three) != 3 {
		t.Fatalf("three runs released %d append replies, want 3: %v", len(three), three)
	}
	got, want := nd.rep.peers[1], apart.nodes[0].nd.rep.peers[1]
	if got.match != want.match || got.next != want.next || got.readAck != want.readAck || !slices.Equal(got.inflight, want.inflight) {
		t.Fatalf("the leader holds %+v for the follower after the folded reply, %+v after three", got, want)
	}
}

// A leader pass that takes a proposal and a linearizable read sends each
// follower one AppendEntries carrying the entry; the one the round
// probes (follower 1: the followers tie, and the lower id goes first)
// carries the read's new round id too, and the read confirms on its echo.
func TestProposalAndReadShareOneAppend(t *testing.T) {
	s := leaderSim(5)
	nd := s.nodes[0].nd
	props, reads := s.proposals(0, 1), s.reads(0, 1)
	s.step(0, func(nd *Node) { nd.handleProposeBatch(props); nd.handleReadBatch(reads) })
	if len(nd.reads) != 1 {
		t.Fatalf("%d reads wait on a round, want 1", len(nd.reads))
	}
	round := nd.reads[0].round.id
	for _, f := range []int{1, 2} {
		msgs := onWire(s, 0, f)
		if len(msgs) != 1 {
			t.Fatalf("follower %d was sent %d messages, want 1: %v", f, len(msgs), msgs)
		}
		if m, ok := msgs[0].(AppendEntries); !ok || len(m.Entries) != 1 || (m.ReadID == round) != (f == 1) {
			t.Fatalf("follower %d was sent %v, want the entry, and read round %d only to follower 1", f, msgs[0], round)
		}
	}
	s.quiet()
	if s.fail != "" {
		t.Fatal(s.fail)
	}
	if len(nd.reads) != 0 || len(nd.rep.rounds) != 0 {
		t.Fatalf("the read's round %d was never confirmed: %d reads wait, rounds %v", round, len(nd.reads), nd.rep.rounds)
	}
	if ack := nd.rep.peers[1].readAck; ack < round {
		t.Fatalf("follower 1 echoed read %d, want %d", ack, round)
	}
}

// followerPass runs one pass of an unstarted node following node 1 in
// term 1, with n entries of term 1 all on disk: it takes msgs from node 1
// and flushes, then lands what the pass staged as one run. sent and
// released are the AppendEntriesReplies that reached node 1 at the flush
// and at the landing.
func followerPass(t *testing.T, n int, msgs ...any) (sent, released []AppendEntriesReply) {
	nw := netsim.New(2, netsim.WithFIFO())
	disk := NewMemStorage()
	var log []Entry
	for i := range n {
		log = append(log, Entry{Term: 1, Command: i})
	}
	if err := errors.Join(disk.SetState(1, 1), disk.AppendBatch([]LogMutation{{Entries: log}})); err != nil {
		t.Fatal(err)
	}
	nd, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}, Storage: disk})
	if err != nil {
		t.Fatal(err)
	}
	nd.el.leader = 1
	for _, m := range msgs {
		nd.handleMessage(msgnet.Message{From: 1, Payload: m})
	}
	replies := func() (out []AppendEntriesReply) {
		for _, p := range received(nw, 1) {
			out = append(out, p.(AppendEntriesReply))
		}
		return out
	}
	nd.flush()
	sent = replies()
	var run []persistReq
	for len(nd.persistQ) > 0 {
		run = append(run, <-nd.persistQ)
	}
	if len(run) > 0 {
		nd.onPersistDone(nd.doPersistRun(run))
	}
	return sent, replies()
}

// What the fold must leave alone, on a hand-driven follower.
func TestFoldGuards(t *testing.T) {
	entry := []Entry{{Term: 1, Command: "c"}}
	t.Run("a rejection between two successes is still sent", func(t *testing.T) {
		// Reordered on the way: read 8 overtook read 7.
		sent, _ := followerPass(t, 4,
			AppendEntries{Term: 1, LeaderID: 1, Entries: []Entry{{Term: 1, Command: 0}, {Term: 1, Command: 1}}, ReadID: 8},
			AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 9, PrevLogTerm: 1, ReadID: 8},
			AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 4, PrevLogTerm: 1, ReadID: 7})
		want := []AppendEntriesReply{{Term: 1, RejectHint: 4, ReadID: 8}, {Term: 1, Success: true, MatchIndex: 4, ReadID: 8}}
		if !slices.Equal(sent, want) {
			t.Fatalf("sent %v, want %v", sent, want)
		}
	})
	t.Run("a reply of an older term is still sent", func(t *testing.T) {
		sent, released := followerPass(t, 4,
			AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 4, PrevLogTerm: 1, ReadID: 3},
			AppendEntries{Term: 2, LeaderID: 1, PrevLogIndex: 4, PrevLogTerm: 1, ReadID: 1})
		want := []AppendEntriesReply{{Term: 1, Success: true, MatchIndex: 4, ReadID: 3}, {Term: 2, Success: true, MatchIndex: 4, ReadID: 1}}
		if len(sent) != 0 || !slices.Equal(released, want) {
			t.Fatalf("sent %v at once and %v with the new term on disk, want nothing and %v", sent, released, want)
		}
	})
	t.Run("an unfenced reply never absorbs a fenced one", func(t *testing.T) {
		// As in TestRetransmitOfDurableEntriesNotFenced, in one pass.
		sent, released := followerPass(t, 2,
			AppendEntries{Term: 1, LeaderID: 1, PrevLogIndex: 2, PrevLogTerm: 1, Entries: entry},
			AppendEntries{Term: 1, LeaderID: 1, Entries: []Entry{{Term: 1, Command: 0}, {Term: 1, Command: 1}}})
		if want := []AppendEntriesReply{{Term: 1, Success: true, MatchIndex: 2}}; !slices.Equal(sent, want) {
			t.Fatalf("sent %v at once, want %v", sent, want)
		}
		if want := []AppendEntriesReply{{Term: 1, Success: true, MatchIndex: 3}}; !slices.Equal(released, want) {
			t.Fatalf("released %v with entry 3 on disk, want %v", released, want)
		}
	})
}

// TestFoldRules: fold on hand-made release sets, a rule or a guard a row.
func TestFoldRules(t *testing.T) {
	ok := func(to, term, match, read int) outMsg {
		return outMsg{to: to, payload: AppendEntriesReply{Term: term, Success: true, MatchIndex: match, ReadID: read},
			claim: claim{index: match, state: true}}
	}
	no := outMsg{to: 1, payload: AppendEntriesReply{Term: 2, RejectHint: 3, ReadID: 9}, claim: claim{state: true}}
	ae := func(term, commit, read int, entries ...Entry) outMsg {
		return outMsg{to: 1, payload: AppendEntries{Term: term, LeaderCommit: commit, ReadID: read, Entries: entries}}
	}
	x, y := Entry{Term: 2, Command: "x"}, Entry{Term: 2, Command: "y"}
	traced := func(m outMsg) outMsg { m.payload = msgnet.WithTraceID(7, m.payload); return m }
	rows := []struct {
		name      string
		set, want []outMsg
	}{
		{"a later success takes the higher match, read id and claim",
			[]outMsg{ok(1, 2, 5, 9), ok(1, 2, 4, 7)}, []outMsg{{to: 1, payload: AppendEntriesReply{Term: 2, Success: true, MatchIndex: 5, ReadID: 9}, claim: claim{index: 5, state: true}}}},
		{"a rejection stays, the successes around it fold",
			[]outMsg{ok(1, 2, 5, 3), no, ok(1, 2, 6, 3)}, []outMsg{no, ok(1, 2, 6, 3)}},
		{"replies of two terms both leave", []outMsg{ok(1, 1, 5, 3), ok(1, 2, 5, 3)}, []outMsg{ok(1, 1, 5, 3), ok(1, 2, 5, 3)}},
		{"replies to two peers both leave", []outMsg{ok(1, 2, 5, 3), ok(2, 2, 5, 3)}, []outMsg{ok(1, 2, 5, 3), ok(2, 2, 5, 3)}},
		{"a probe before the entries folds into them", []outMsg{ae(2, 3, 4), ae(2, 2, 3, x)}, []outMsg{ae(2, 3, 4, x)}},
		{"a probe after the entries folds into them", []outMsg{ae(2, 2, 3, x), ae(2, 3, 4)}, []outMsg{ae(2, 3, 4, x)}},
		{"a probe folds into the last entries", []outMsg{ae(2, 2, 3, x), ae(2, 2, 3, y), ae(2, 3, 4)}, []outMsg{ae(2, 2, 3, x), ae(2, 3, 4, y)}},
		{"a probe of another term stays", []outMsg{ae(1, 2, 3, x), ae(2, 3, 4)}, []outMsg{ae(1, 2, 3, x), ae(2, 3, 4)}},
		{"a sampled append keeps its trace id", []outMsg{traced(ae(2, 2, 3, x)), ae(2, 3, 4)}, []outMsg{traced(ae(2, 3, 4, x))}},
	}
	nd := &Node{folds: make([]foldSlot, 3)}
	for _, row := range rows {
		if got := nd.fold(slices.Clone(row.set)); !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: folded to %v, want %v", row.name, got, row.want)
		}
	}
}

// A batch that rewrites entries an earlier batch still in flight wrote
// lands in a run of its own: the earlier batch's reply leaves while the
// disk holds what it acknowledges, not after the rewrite replaced it.
func TestRewriteLandsInARunOfItsOwn(t *testing.T) {
	nw := netsim.New(3, netsim.WithFIFO())
	disk := NewMemStorage()
	nd, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}, Storage: disk})
	if err != nil {
		t.Fatal(err)
	}
	pass := func(from int, m AppendEntries) {
		nd.handleMessage(msgnet.Message{From: from, Payload: m})
		nd.flush()
	}
	pass(1, AppendEntries{Term: 1, LeaderID: 1, Entries: []Entry{{Term: 1, Command: "a"}}})
	pass(2, AppendEntries{Term: 2, LeaderID: 2, Entries: []Entry{{Term: 2, Command: "b"}}})
	var queued []persistReq
	for len(nd.persistQ) > 0 {
		queued = append(queued, <-nd.persistQ)
	}
	if len(queued) != 2 {
		t.Fatalf("staged %d batches, want 2", len(queued))
	}
	if queued[0].rewrites || !queued[1].rewrites || nextRun(queued) != 1 {
		t.Fatalf("rewrites %v and %v, first run %d; want the second alone to rewrite, and a run of 1",
			queued[0].rewrites, queued[1].rewrites, nextRun(queued))
	}
	nd.onPersistDone(nd.doPersistRun(queued[:1]))
	on, _ := disk.Load()
	got := received(nw, 1)
	if want := (AppendEntriesReply{Term: 1, Success: true, MatchIndex: 1}); len(got) != 1 || got[0] != want {
		t.Fatalf("node 1 got %v, want %v", got, want)
	}
	if len(on.Entries) != 1 || on.Entries[0].Term != 1 {
		t.Fatalf("the disk holds %v as the reply leaves, want term 1's entry", on.Entries)
	}
}
