package raft

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// peerNext is the leader's next index for peer.
func peerNext(nd *Node, peer int) int { return nd.rep.peers[peer].next }

// tick runs the leader's heartbeat as the main loop's timer arm does.
func tick(nd *Node) { nd.applyReplication(nd.rep.heartbeat(time.Time{})) }

// unstarted builds node 0 of three over a FIFO netsim, restored from st.
func unstarted(t *testing.T, st Storage) *Node {
	t.Helper()
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(3, netsim.WithFIFO()).Node(0), RNG: sim.NewRNG(1),
		StateMachine: &KVStore{}, Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// An append that overwrites a conflicting suffix is an adopt like any
// other: VAC.Propose reads EventAppended for the entry at index 2 that
// replaced the follower's own.
func TestReplicationReportsOverwrittenEntries(t *testing.T) {
	st := NewMemStorage()
	if err := st.TruncateAndAppend(0, []Entry{{Term: 1, Command: "a"}, {Term: 1, Command: "b"}, {Term: 1, Command: "c"}}); err != nil {
		t.Fatal(err)
	}
	nd := unstarted(t, st)
	sub := nd.Subscribe(EventAppended)
	nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntries{Term: 2, LeaderID: 1, PrevLogIndex: 1, PrevLogTerm: 1,
		Entries: []Entry{{Term: 2, Command: "x"}}}})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	ev, err := sub.Next(ctx)
	if err != nil || ev.Index != 2 || ev.Command != "x" {
		t.Fatalf("appended event %+v (%v), want index 2 carrying x", ev, err)
	}
}

// A laggard behind the compaction point is sent the snapshot once per
// window, not once per leader pass: three proposal batches and a
// heartbeat after the rewind that reached it stage one copy.
func TestReplicationSnapshotTakesOneSlot(t *testing.T) {
	kv := &KVStore{}
	for i := 1; i <= 3; i++ {
		kv.Apply(i, KVCommand{Op: "set", Key: "k", Value: "v"})
	}
	data, err := kv.SnapshotData()
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStorage()
	if err := st.SaveSnapshot(3, 1, data); err != nil {
		t.Fatal(err)
	}
	nd := unstarted(t, st)
	win(nd)
	nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntriesReply{Term: nd.el.term, RejectHint: 0}})
	for i := 0; i < 3; i++ {
		nd.handleProposeBatch([]proposeReq{{cmd: KVCommand{Op: "set", Key: "k", Value: "w"}, t: &ticket{accept: true}}})
	}
	tick(nd)
	copies := 0
	for _, m := range nd.outbox {
		if _, ok := m.payload.(InstallSnapshot); ok && m.to == 1 {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("staged %d snapshots to the laggard, want 1", copies)
	}
}

// A rejection that arrives after a success through a later index is
// stale: it says nothing about the follower's log that the success did
// not supersede, so next stays past the match and nothing is resent.
func TestReplicationStaleRejectionKeepsNext(t *testing.T) {
	nd := unstarted(t, nil)
	win(nd)
	for i := 2; i <= 10; i++ {
		nd.handleProposeBatch([]proposeReq{{cmd: i, t: &ticket{accept: true}}})
	}
	term := nd.el.term
	nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntriesReply{Term: term, Success: true, MatchIndex: 10}})
	if next := peerNext(nd, 1); next != 11 {
		t.Fatalf("after a success through 10: next %d, want 11", next)
	}
	nd.outbox = nd.outbox[:0]
	nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntriesReply{Term: term, RejectHint: 3}})
	if next := peerNext(nd, 1); next != 11 || len(nd.outbox) != 0 {
		t.Fatalf("after a stale rejection with hint 3: next %d and %v staged, want 11 and nothing", next, nd.outbox)
	}
}

// TestReplicationQuorumIndex: the largest value a majority holds at or
// above, at odd and even sizes.
func TestReplicationQuorumIndex(t *testing.T) {
	for _, tc := range []struct {
		vals []int
		want int
	}{
		{[]int{7}, 7},
		{[]int{5, 1, 3}, 3},
		{[]int{5, 1, 3, 4}, 3},
		{[]int{2, 9, 9, 0, 4}, 4},
		{[]int{0, 0, 8, 8}, 0},
	} {
		if got := quorumIndex(append([]int(nil), tc.vals...)); got != tc.want {
			t.Errorf("quorumIndex(%v) = %d, want %d", tc.vals, got, tc.want)
		}
	}
}

// repCore is one processor as its two cores, for directed schedules.
type repCore struct {
	el  *election
	rep replication
}

func newRepCores(n int) []*repCore {
	cs := make([]*repCore, n)
	for id := range cs {
		c := &repCore{}
		cfg := Config{ID: id}
		c.el = elCore(id, n, 0, cfg, &c.rep.log)
		c.rep = newReplication(&cfg, n, c.el)
		cs[id] = c
	}
	return cs
}

// lead makes c the leader of term with a fresh reign, as winning does,
// but without the term-opening no-op, which would mask the rule below.
func (c *repCore) lead(term int) {
	c.el.term, c.el.role, c.el.leader = term, Leader, c.el.id
	c.rep.win()
}

// exchange delivers msgs from one core, and everything they prompt, to
// the cores in reach until nothing is left; a core's writes land at once.
func exchange(cs []*repCore, reach map[int]bool, from int, msgs []outMsg) {
	type hop struct {
		from int
		m    outMsg
	}
	var q []hop
	for _, m := range msgs {
		q = append(q, hop{from, m})
	}
	for ; len(q) > 0; q = q[1:] {
		from, m := q[0].from, q[0].m
		if !reach[m.to] {
			continue
		}
		c := cs[m.to]
		o := &repOut{}
		switch p := m.payload.(type) {
		case AppendEntries:
			c.el.term, c.el.role = p.Term, Follower
			o = c.rep.onAppend(from, p)
		case AppendEntriesReply:
			o = c.rep.onAppendReply(from, p)
		}
		for _, next := range o.msgs {
			q = append(q, hop{m.to, next})
		}
	}
}

// TestReplicationFigure8 plays the schedule of Raft's Figure 8 on the
// cores of five processors: an entry of an earlier term held by a
// majority must not be committed by counting, because a later leader
// may still overwrite it; only an entry of the leader's own term commits
// it (§5.4.2).
func TestReplicationFigure8(t *testing.T) {
	cs := newRepCores(5)
	for _, c := range cs {
		c.rep.log.appendEntry(Entry{Term: 1, Command: "n"})
		c.rep.durable, c.rep.commit, c.el.term = 1, 1, 1
	}
	s1, s5 := cs[0], cs[4]
	// (a) S1 leads term 2 and replicates index 2 to S2 only.
	s1.lead(2)
	exchange(cs, map[int]bool{0: true, 1: true}, 0, s1.rep.propose([]any{"a"}).msgs)
	// (b) S5 leads term 3 with votes from S3 and S4, and writes its own
	// index 2 to its own log only.
	s5.lead(3)
	s5.rep.propose([]any{"b"})
	// (c) S1 leads term 4 and replicates index 2 to S3: S1, S2 and S3
	// now hold it, a majority, and nothing of term 4 is anywhere.
	s1.lead(4)
	exchange(cs, map[int]bool{0: true, 1: true, 2: true}, 0, s1.rep.heartbeat(time.Time{}).msgs)
	if t2, _ := cs[2].rep.log.termAt(2); t2 != 2 || s1.rep.peers[1].match != 2 || s1.rep.peers[2].match != 2 {
		t.Fatalf("setup: S3 holds term %d at 2, S1 has S2 at %d and S3 at %d; want term 2 and both at 2",
			t2, s1.rep.peers[1].match, s1.rep.peers[2].match)
	}
	if s1.rep.commit != 1 {
		t.Fatalf("S1 committed through %d in term 4 off a majority holding a term-2 entry", s1.rep.commit)
	}
	// (d) S1 is gone. S5 leads term 5 with votes from S2, S3 and S4 (its
	// last term, 3, beats their 2), and its entries overwrite index 2
	// everywhere it reaches.
	s5.lead(5)
	exchange(cs, map[int]bool{1: true, 2: true, 3: true, 4: true}, 4, s5.rep.propose([]any{"c"}).msgs)
	if s5.rep.commit != 3 {
		t.Fatalf("S5 committed through %d, want 3", s5.rep.commit)
	}
	for _, c := range cs {
		if e, _ := c.rep.log.entryAt(2); c.rep.commit >= 2 && e.Command != "b" {
			t.Fatalf("node %d committed %v at index 2, S5 committed b", c.el.id, e.Command)
		}
	}
}

// The properties below run n processors as unstarted Nodes, stepped one
// at a time on one goroutine under an adversarial schedule: random
// delivery, drop and duplication, timer firings, campaigns, heartbeats,
// proposals, compactions, local and forwarded reads, a leader cut off
// for a while (so that installs over conflicting logs happen), persists
// landing FIFO, and crash-restarts from the last persist that landed. A
// step calls the cores' entry points the way the main loop does and ends
// in flush(), so the persist fence under test (persistLog,
// persistSnapshot, clampDurable, the claims flush() checks) is the one
// that ships; the workers' places are taken by the schedule, which lands
// a node's oldest batch with doPersistRun and onPersistDone, and by
// settle, which applies what a step committed to the node's KVStore.
type repSim struct {
	n       int
	rng     *sim.RNG
	clock   *sim.FakeClock
	preVote bool
	nodes   []*repNode
	net     []elMsg
	seq     int
	// committed is every entry any node handed its apply queue, with the
	// lowest term it was handed over in — the term that committed it;
	// leaderLog is each term's leader's log as it last stood. maxCommit is
	// the highest commit index any node has held, and floor maps a read's
	// reply channel to maxCommit at the read's invocation.
	committed map[int]Entry
	commitAt  map[int]int
	leaderLog map[int]raftLog
	maxCommit int
	floor     map[chan proposeReply]int
	// cut is the node whose messages are lost until step heal, -1 if none.
	cut, heal int
	fail      string
}

type repNode struct {
	nd      *Node
	disk    *MemStorage
	kv      *KVStore
	applied int
	onDisk  PersistentState     // what the disk held after the last landing
	queue   []persistReq        // staged and not landed, FIFO
	accepts []repAccept         // proposals waiting for their accept reply
	reads   []chan proposeReply // reads waiting for a staged reply
	led     int                 // the last term this node was checked as leader in
}

type repAccept struct {
	t   *ticket
	cmd any
}

// repEndpoint puts a node's sends on the sim's wire, through its checks.
type repEndpoint struct {
	s  *repSim
	id int
}

func (e repEndpoint) ID() int { return e.id }
func (e repEndpoint) N() int  { return e.s.n }
func (e repEndpoint) Send(to int, payload any) error {
	e.s.send(elMsg{from: e.id, to: to, payload: payload})
	return nil
}
func (e repEndpoint) Broadcast(any) error                          { panic("unused") }
func (e repEndpoint) Recv(context.Context) (msgnet.Message, error) { panic("unused") }
func (e repEndpoint) Ready() <-chan struct{}                       { return nil }
func (e repEndpoint) TryRecv() (msgnet.Message, bool, error)       { return msgnet.Message{}, false, nil }
func (e repEndpoint) Inbox() *msgnet.Inbox                         { return nil }

func newRepSim(n int, seed uint64) *repSim {
	s := &repSim{n: n, rng: sim.NewRNG(seed), clock: sim.NewFakeClock(), committed: map[int]Entry{},
		commitAt: map[int]int{}, leaderLog: map[int]raftLog{}, floor: map[chan proposeReply]int{}, cut: -1}
	s.preVote = s.rng.Bool()
	for id := 0; id < n; id++ {
		s.nodes = append(s.nodes, &repNode{disk: NewMemStorage()})
		s.boot(id)
	}
	return s
}

func (s *repSim) failf(format string, args ...any) {
	if s.fail == "" {
		s.fail = fmt.Sprintf(format, args...)
	}
}

// boot (re)starts node id from its disk, as NewNode and run do.
func (s *repSim) boot(id int) {
	rn := s.nodes[id]
	rn.kv = &KVStore{}
	nd, err := NewNode(Config{ID: id, Endpoint: repEndpoint{s, id}, Clock: s.clock, RNG: sim.NewRNG(s.rng.Uint64()),
		ElectionTimeout: 100 * time.Millisecond, PreVote: s.preVote, StateMachine: rn.kv, Storage: rn.disk})
	if err != nil {
		panic(err)
	}
	nd.el.push(s.clock.Now())
	rn.nd, rn.queue, rn.accepts, rn.reads, rn.applied = nd, nil, nil, nil, nd.applied.current()
	rn.onDisk, _ = rn.disk.Load()
}

// diskHas reports whether node id's disk holds e at index, a snapshot
// covering index counting as holding it: only committed entries are
// compacted.
func (s *repSim) diskHas(id, index int, e Entry) bool {
	d := s.nodes[id].onDisk
	i := index - d.SnapIndex - 1
	return index >= 1 && (i < 0 || i < len(d.Entries) && d.Entries[i] == e)
}

// answered checks a read's answer against the highest index committed
// anywhere when the read began.
func (s *repSim) answered(ch chan proposeReply, index int, how string) {
	if floor := s.floor[ch]; index < floor {
		s.failf("a read invoked with %d committed was answered at %d by %s", floor, index, how)
	}
}

// send checks what a message claims against the sender's disk as it
// leaves: a vote or a candidacy is on disk, and an AppendEntriesReply's
// term is, and so is the leader's log through its MatchIndex.
func (s *repSim) send(m elMsg) {
	disk := s.nodes[m.from].onDisk
	switch p := m.payload.(type) {
	case RequestVote:
		if !p.Pre && (disk.Term < p.Term || disk.Term == p.Term && disk.VotedFor != m.from) {
			s.failf("node %d asked for votes in term %d with term %d vote %d on disk", m.from, p.Term, disk.Term, disk.VotedFor)
		}
	case RequestVoteReply:
		if !p.Pre && p.VoteGranted && (disk.Term < p.Term || disk.Term == p.Term && disk.VotedFor != m.to) {
			s.failf("node %d granted %d its vote in term %d with term %d vote %d on disk", m.from, m.to, p.Term, disk.Term, disk.VotedFor)
		}
	case AppendEntriesReply:
		if disk.Term < p.Term {
			s.failf("node %d replied in term %d with term %d on disk", m.from, p.Term, disk.Term)
		}
		lead := s.leaderLog[p.Term]
		for i := lead.snapIndex + 1; p.Success && i <= p.MatchIndex; i++ {
			if e, ok := lead.entryAt(i); !ok || !s.diskHas(m.from, i, e) {
				s.failf("node %d acknowledged term %d's log through %d, its disk differs at %d: %v", m.from, p.Term, p.MatchIndex, i, disk.Entries)
				break
			}
		}
	case ReadIndexReply:
		if rw, ok := s.nodes[m.to].nd.relay[p.ID]; ok && p.Success {
			s.answered(rw.ch, p.Index, "the leader's ReadIndexReply")
		}
	}
	s.net = append(s.net, m)
}

// settle ends a step on node id as the main loop ends a pass, collects
// what the pass handed the persist worker and the apply worker and the
// accept replies it released, and checks the properties a step can
// break.
func (s *repSim) settle(id int) {
	rn := s.nodes[id]
	nd := rn.nd
	nd.flush()
	for len(nd.persistQ) > 0 {
		rn.queue = append(rn.queue, <-nd.persistQ)
	}
	for len(nd.applyQ) > 0 { // the apply worker's part
		switch it := <-nd.applyQ; {
		case it.wait != nil:
			s.answered(it.wait.w.ch, it.wait.index, "the apply wait")
		case it.restore != nil:
			if err := rn.kv.RestoreSnapshot(it.restore.index, it.restore.data); err != nil {
				s.failf("node %d restoring %d: %v", id, it.restore.index, err)
			}
			rn.applied = it.restore.index
		default:
			for i, e := range it.entries {
				s.commit(it.first+i, e, it.term)
				rn.kv.Apply(it.first+i, e.Command)
			}
			rn.applied = max(rn.applied, it.first+len(it.entries)-1)
		}
	}
	nd.applied.advance(rn.applied)
	s.maxCommit = max(s.maxCommit, nd.rep.commit)
	waiting := rn.reads[:0]
	for _, ch := range rn.reads {
		select {
		case r := <-ch:
			if r.err == nil {
				s.answered(ch, r.index, "a staged reply")
			}
		default:
			waiting = append(waiting, ch)
		}
	}
	rn.reads = waiting
	kept := rn.accepts[:0]
	for _, a := range rn.accepts {
		if r := a.t.rep; !a.t.resolved {
			kept = append(kept, a)
		} else if r.err == nil && !s.diskHas(id, r.index, Entry{Term: r.term, Command: a.cmd}) {
			s.failf("node %d accepted %v at %d in term %d before its disk held it", id, a.cmd, r.index, r.term)
		}
	}
	rn.accepts = kept
	log := &nd.rep.log
	if len(rn.queue) == 0 { // the disk holds what memory does
		if d := rn.onDisk; d.SnapIndex != log.snapIndex || d.SnapTerm != log.snapTerm || !slices.Equal(d.Entries, log.entries) {
			s.failf("node %d with nothing in flight holds %v in memory and snapshot %d/%d and %d entries on disk",
				id, log, d.SnapIndex, d.SnapTerm, len(d.Entries))
		}
	}
	if term := nd.el.term; nd.el.role == Leader {
		if rn.led != term { // leader completeness, checked as the reign starts
			rn.led = term
			for idx, e := range s.committed {
				if got, ok := log.entryAt(idx); s.commitAt[idx] < term && idx > log.snapIndex && (!ok || got != e) {
					s.failf("node %d leads term %d without %v, committed at %d in term %d", id, term, e, idx, s.commitAt[idx])
				}
			}
		}
		s.leaderLog[term] = raftLog{entries: slices.Clone(log.entries), snapIndex: log.snapIndex, snapTerm: log.snapTerm}
	}
	for j, other := range s.nodes { // log matching
		if j == id {
			continue
		}
		ol := &other.nd.rep.log
		k := min(log.lastIndex(), ol.lastIndex())
		for ; k > 0; k-- {
			if a, _ := log.termAt(k); ol.matches(k, a) {
				break
			}
		}
		for i := max(log.snapIndex, ol.snapIndex) + 1; i <= k; i++ {
			if a, _ := log.entryAt(i); a != ol.entries[i-ol.snapIndex-1] {
				s.failf("log matching: nodes %d and %d agree on the term at %d and differ at %d", id, j, k, i)
				break
			}
		}
	}
}

// commit records an entry a node committed: no other entry was ever
// committed at its index, and a majority of disks hold it.
func (s *repSim) commit(index int, e Entry, term int) {
	if prev, ok := s.committed[index]; ok && prev != e {
		s.failf("state-machine safety: %v and %v both committed at %d", prev, e, index)
	}
	if at, ok := s.commitAt[index]; !ok || term < at {
		s.committed[index], s.commitAt[index] = e, term
	}
	held := 0
	for id := range s.nodes {
		if s.diskHas(id, index, e) {
			held++
		}
	}
	if 2*held <= s.n {
		s.failf("%v committed at %d on %d of %d disks", e, index, held, s.n)
	}
}

func (s *repSim) run(steps int) {
	for i := 0; i < steps && s.fail == ""; i++ {
		if i == s.heal {
			s.cut = -1
		}
		id := s.rng.Intn(s.n)
		rn := s.nodes[id]
		nd := rn.nd
		switch k := s.rng.Intn(72); {
		case k < 40 && len(s.net) > 0: // deliver; 38: drop; 39: deliver and keep a copy
			j := s.rng.Intn(len(s.net))
			m := s.net[j]
			if k != 39 {
				s.net[j] = s.net[len(s.net)-1]
				s.net = s.net[:len(s.net)-1]
			}
			if k != 38 && m.to != s.cut && m.from != s.cut {
				s.nodes[m.to].nd.handleMessage(msgnet.Message{From: m.from, Payload: m.payload})
				s.settle(m.to)
			}
		case k >= 40 && k < 52: // the oldest persist lands, here or at the next node with one
			for j := 1; j < s.n && len(rn.queue) == 0; j++ {
				id = (id + j) % s.n
				rn = s.nodes[id]
			}
			if len(rn.queue) == 0 {
				break
			}
			req := rn.queue[0]
			rn.queue = rn.queue[1:]
			done := rn.nd.doPersistRun([]persistReq{req})
			rn.onDisk, _ = rn.disk.Load()
			rn.nd.onPersistDone(done)
			s.settle(id)
		case k == 52: // the timer fires
			if nd.el.deadline.After(s.clock.Now()) {
				s.clock.AdvanceTo(nd.el.deadline)
			}
			nd.applyElection(nd.el.tick(s.clock.Now()))
			s.settle(id)
		case k == 53:
			nd.applyElection(nd.el.campaign(s.clock.Now()))
			s.settle(id)
		case k >= 54 && k < 58 && nd.el.role == Leader:
			nd.applyReplication(nd.rep.heartbeat(s.clock.Now()))
			s.settle(id)
		case k >= 58 && k < 63 && nd.el.role == Leader:
			var reqs []proposeReq
			for c := s.rng.Intn(3); c >= 0; c-- {
				s.seq++
				a := repAccept{t: &ticket{accept: true}, cmd: s.seq}
				rn.accepts = append(rn.accepts, a)
				reqs = append(reqs, proposeReq{cmd: a.cmd, t: a.t})
			}
			nd.handleProposeBatch(reqs)
			s.settle(id)
		case k == 63: // crash and restart from the disk
			s.boot(id)
		case k >= 64 && k < 66 && rn.applied > nd.rep.log.snapIndex:
			// The apply worker's compaction offer, at any applied index: the
			// proposals are ints, which a KVStore ignores, so its data is
			// the same at each.
			data, err := rn.kv.SnapshotData()
			if err != nil {
				panic(err)
			}
			snap := nd.rep.log.snapIndex
			nd.applyReplication(nd.rep.compact(snap+1+s.rng.Intn(rn.applied-snap), data))
			s.settle(id)
		case k == 66 && s.cut < 0:
			// A leader is cut off for a while: it goes on taking proposals
			// the rest overwrite, and learns of them by InstallSnapshot.
			for j, other := range s.nodes {
				if other.nd.el.role == Leader {
					id = j
				}
			}
			s.cut, s.heal = id, i+200
		case k >= 67: // linearizable reads, local on a leader and forwarded by a follower
			var reqs []readReq
			for c := s.rng.Intn(3); c >= 0; c-- {
				ch := make(chan proposeReply, 1)
				s.floor[ch] = s.maxCommit
				rn.reads = append(rn.reads, ch)
				reqs = append(reqs, readReq{mode: ReadLinearizable, reply: ch})
			}
			nd.handleReadBatch(reqs)
			s.settle(id)
		}
	}
}

// TestReplicationProperties checks, for n = 3, 4 and 5: log matching;
// leader completeness; state-machine safety, and that a committed entry
// is on a majority of disks; that no AppendEntriesReply and no proposal
// acceptance leaves before the persist that covers its claim; that a
// node with no persist in flight holds on disk the snapshot marker and
// the entries it holds in memory; and that every read is answered at an
// index no lower than any node's commit index when it began.
func TestReplicationProperties(t *testing.T) {
	for n := 3; n <= 5; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var fail string
			check := func(seed uint64) bool {
				s := newRepSim(n, seed)
				s.run(800)
				if s.fail != "" {
					fail = fmt.Sprintf("seed %d (pre-vote %v): %s", seed, s.preVote, s.fail)
				}
				return s.fail == ""
			}
			if err := quick.Check(check, nil); err != nil { // -quickchecks cases, 100 by default
				t.Fatal(fail)
			}
		})
	}
}
