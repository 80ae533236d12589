package raft

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/sim"
)

// stepSim runs n processors as unstarted Nodes over MemStorage, stepped
// one at a time on one goroutine with one fake clock and one wire. A step
// calls the cores' entry points the way the main loop does and ends in
// flush(), so the persist fence under test (persistLog, persistSnapshot,
// clampDurable, the claims flush() checks) is the one that ships; the
// workers' places are taken by the schedule, which lands a node's oldest
// persists with doPersistRun and onPersistDone in the runs the persist
// worker's greedy drain makes (nextRun), so a run's release set folds,
// and by settle, which applies what a step committed to the node's KVStore.
//
// enabled says what the state enables, pick draws one such action from
// a mix, and do carries it out and records it in the trace, so a seed
// replays action for action; a directed test does named actions, or
// quiet. The checks run after every step (step, settle), as a message
// leaves (send) and as an entry is applied (commit), and the first
// failure ends a run.
type stepSim struct {
	n     int
	rng   *sim.RNG
	clock *sim.FakeClock
	cfg   Config // drawn per seed: PreVote, and leases on or off
	nodes []*simNode
	wire  []simMsg // sent and neither delivered nor lost
	cut   []bool   // nodes cut off: what they send or are sent is lost
	trace []action
	seq   int // the last command proposed
	fail  string
	// committed is every entry any node handed its apply queue, with the
	// lowest term it was handed over in — the term that committed it;
	// leaders and leaderLog are each term's leader and its log as it last
	// stood. maxCommit is the highest commit index any node has held, and
	// floor maps a read's reply channel to maxCommit at its invocation.
	committed map[int]Entry
	commitAt  map[int]int
	leaders   map[int]int
	leaderLog map[int]raftLog
	maxCommit int
	floor     map[chan proposeReply]int
}

type simNode struct {
	nd      *Node
	disk    *MemStorage
	kv      *KVStore
	applied int                 // the apply cursor
	onDisk  PersistentState     // what the disk held after the last landing
	queue   []persistReq        // the persist FIFO: staged and not landed
	accepts []proposeReq        // proposals waiting for their accept reply
	reads   []chan proposeReply // reads waiting for a staged reply
}

type simMsg struct {
	from, to int
	payload  any
}

type actKind uint8

// The kinds of action: on wire message who, then on node who, then on
// the whole sim.
const (
	actDeliver actKind = iota
	actDrop
	actDup     // deliver and keep a copy on the wire
	actPersist // land the arg oldest persists, in the worker's runs
	actTimer   // fire the timer, moving the clock to its deadline
	actCampaign
	actHeartbeat
	actPropose // arg commands, on a leader
	actRead    // arg linearizable reads: local on a leader, forwarded by a follower
	actCompact // through arg, an applied index
	actCrash   // restart from the disk
	actCut     // cut a leader off
	actTimers  // fire every due timer at once
	actAdvance // move the clock by arg ns
	actHeal
	numActs
)

var actNames = [numActs]string{"deliver", "drop", "dup", "persist", "timer", "campaign", "heartbeat",
	"propose", "read", "compact", "crash", "cut", "timers", "advance", "heal"}

// action is one step: its kind, the node or wire index it takes (who),
// and the scheduler's draw (arg). do fills in a wire action's message, m,
// for the trace.
type action struct {
	kind     actKind
	who, arg int
	m        simMsg
}

func (a action) String() string {
	if a.kind <= actDup {
		return fmt.Sprintf("%s %d→%d %v", actNames[a.kind], a.m.from, a.m.to, a.m.payload)
	}
	return fmt.Sprintf("%s %d %d", actNames[a.kind], a.who, a.arg)
}

// mix is a scheduler's odds: a kind's weight among the kinds enabled, 0
// leaving it out.
type mix [numActs]int

// simEndpoint puts a node's sends on the sim's wire, through its checks.
type simEndpoint struct {
	s  *stepSim
	id int
}

func (e simEndpoint) ID() int { return e.id }
func (e simEndpoint) N() int  { return e.s.n }
func (e simEndpoint) Send(to int, payload any) error {
	e.s.send(simMsg{from: e.id, to: to, payload: payload})
	return nil
}
func (e simEndpoint) Broadcast(any) error                          { panic("unused") }
func (e simEndpoint) Recv(context.Context) (msgnet.Message, error) { panic("unused") }
func (e simEndpoint) Ready() <-chan struct{}                       { return nil }
func (e simEndpoint) TryRecv() (msgnet.Message, bool, error)       { return msgnet.Message{}, false, nil }
func (e simEndpoint) Inbox() *msgnet.Inbox                         { return nil }

func newStepSim(n int, seed uint64) *stepSim {
	s := &stepSim{n: n, rng: sim.NewRNG(seed), clock: sim.NewFakeClock(), cut: make([]bool, n), committed: map[int]Entry{},
		commitAt: map[int]int{}, leaders: map[int]int{}, leaderLog: map[int]raftLog{}, floor: map[chan proposeReply]int{}}
	s.cfg = Config{PreVote: s.rng.Bool(), ElectionTimeout: 100 * time.Millisecond}
	if s.rng.Bool() {
		s.cfg.LeaseDuration = 90 * time.Millisecond
	}
	for id := range n {
		s.nodes = append(s.nodes, &simNode{disk: NewMemStorage()})
		s.boot(id)
	}
	return s
}

func (s *stepSim) failf(format string, args ...any) {
	if s.fail == "" {
		s.fail = fmt.Sprintf(format, args...)
	}
}

// boot (re)starts node id from its disk, as NewNode and run do.
func (s *stepSim) boot(id int) {
	sn := s.nodes[id]
	sn.kv = &KVStore{}
	cfg := s.cfg
	cfg.ID, cfg.Endpoint, cfg.Clock, cfg.RNG = id, simEndpoint{s, id}, s.clock, sim.NewRNG(s.rng.Uint64())
	cfg.StateMachine, cfg.Storage = sn.kv, sn.disk
	nd, err := NewNode(cfg)
	if err != nil {
		panic(err)
	}
	nd.el.push(s.clock.Now())
	sn.nd, sn.queue, sn.accepts, sn.reads, sn.applied = nd, nil, nil, nil, nd.applied.current()
	sn.onDisk, _ = sn.disk.Load()
}

// enabled reports whether the state enables a. An action's who is a wire
// index for a wire kind, a node for a node kind and 0 for the rest, so an
// explorer lists what a state enables by asking this of each.
func (s *stepSim) enabled(a action) bool {
	switch cut := slices.Contains(s.cut, true); {
	case a.kind <= actDup:
		return a.who < len(s.wire)
	case a.kind >= actTimers:
		return a.kind != actHeal || cut
	case a.kind == actPersist:
		return len(s.nodes[a.who].queue) > 0
	case a.kind == actCompact:
		return s.nodes[a.who].applied > s.nodes[a.who].nd.rep.log.snapIndex
	case a.kind == actHeartbeat || a.kind == actPropose || a.kind == actCut:
		return s.nodes[a.who].nd.el.role == Leader && (a.kind != actCut || !cut)
	}
	return true
}

// pick draws an enabled action: a kind by m's odds among the kinds
// enabled, then a target of that kind uniformly, and its arg.
func (s *stepSim) pick(m *mix) action {
	total := 0
	for _, w := range m {
		total += w
	}
	for {
		var a action
		for r := s.rng.Intn(total); r >= m[a.kind]; a.kind++ {
			r -= m[a.kind]
		}
		k := 0 // how many whos enable the kind; one is drawn uniformly
		switch {
		case a.kind <= actDup: // every message on the wire
			if k = len(s.wire); k > 0 {
				a.who = s.rng.Intn(k)
			}
		case a.kind < actTimers: // a reservoir of one over the nodes
			for id := range s.n {
				if s.enabled(action{kind: a.kind, who: id}) {
					if k++; s.rng.Intn(k) == 0 {
						a.who = id
					}
				}
			}
		case s.enabled(a):
			k = 1
		}
		if k == 0 {
			continue
		}
		switch a.kind {
		case actPersist:
			a.arg = 1 + s.rng.Intn(len(s.nodes[a.who].queue))
		case actPropose, actRead:
			a.arg = 1 + s.rng.Intn(3)
		case actCompact:
			sn := s.nodes[a.who]
			snap := sn.nd.rep.log.snapIndex
			a.arg = snap + 1 + s.rng.Intn(sn.applied-snap)
		case actAdvance:
			a.arg = s.rng.Intn(2 * int(s.cfg.ElectionTimeout))
		}
		return a
	}
}

// run does steps actions picked from m, stopping at the first failure.
func (s *stepSim) run(steps int, m *mix) {
	s.trace = slices.Grow(s.trace, steps)
	for i := 0; i < steps && s.fail == ""; i++ {
		s.do(s.pick(m))
	}
}

// quiet lands every persist and delivers the wire in order, persists
// first, until nothing is left; what the cut set puts out of reach is
// lost.
func (s *stepSim) quiet() {
	for s.fail == "" {
		id := slices.IndexFunc(s.nodes, func(sn *simNode) bool { return len(sn.queue) > 0 })
		switch {
		case id >= 0:
			s.do(action{kind: actPersist, who: id, arg: len(s.nodes[id].queue)})
		case len(s.wire) > 0:
			s.do(action{kind: actDeliver})
		default:
			return
		}
	}
}

// do carries out a and records it in the trace.
func (s *stepSim) do(a action) {
	if a.kind <= actDup {
		a.m = s.wire[a.who]
	}
	s.trace = append(s.trace, a)
	now, id := s.clock.Now(), a.who
	switch a.kind {
	case actDeliver, actDrop, actDup:
		m := a.m
		if a.kind != actDup {
			s.wire = slices.Delete(s.wire, id, id+1)
		}
		if a.kind != actDrop && !s.cut[m.from] && !s.cut[m.to] {
			s.step(m.to, func(nd *Node) { nd.handleMessage(msgnet.Message{From: m.from, Payload: m.payload}) })
		}
	case actPersist:
		// The worker lands what it drained in runs (nextRun); each
		// completion is taken by a pass of its own.
		sn := s.nodes[id]
		for drained := a.arg; drained > 0 && s.fail == ""; {
			run := sn.queue[:nextRun(sn.queue[:drained])]
			sn.queue, drained = sn.queue[len(run):], drained-len(run)
			s.step(id, func(nd *Node) {
				done := nd.doPersistRun(run)
				sn.onDisk, _ = sn.disk.Load()
				nd.onPersistDone(done)
			})
		}
	case actTimer:
		s.clock.AdvanceTo(s.nodes[id].nd.el.deadline)
		s.step(id, func(nd *Node) { nd.applyElection(nd.el.tick(s.clock.Now())) })
	case actTimers:
		for id, sn := range s.nodes {
			if !now.Before(sn.nd.el.deadline) {
				s.step(id, func(nd *Node) { nd.applyElection(nd.el.tick(now)) })
			}
		}
	case actCampaign:
		s.step(id, func(nd *Node) { nd.applyElection(nd.el.campaign(now)) })
	case actHeartbeat:
		s.step(id, func(nd *Node) { nd.applyReplication(nd.rep.heartbeat(now)) })
	case actPropose:
		reqs := s.proposals(id, a.arg)
		s.step(id, func(nd *Node) { nd.handleProposeBatch(reqs) })
	case actRead:
		reqs := s.reads(id, a.arg)
		s.step(id, func(nd *Node) { nd.handleReadBatch(reqs) })
	case actCompact:
		// The apply worker's compaction offer, at any applied index: the
		// proposals are ints, which a KVStore ignores, so its data is the
		// same at each.
		data, err := s.nodes[id].kv.SnapshotData()
		if err != nil {
			panic(err)
		}
		s.step(id, func(nd *Node) { nd.applyReplication(nd.rep.compact(a.arg, data)) })
	case actCrash:
		s.clock.Advance(time.Millisecond) // a boot takes time: see relaySeq in NewNode
		s.boot(id)
	case actAdvance:
		s.clock.Advance(time.Duration(a.arg))
	case actCut:
		s.cut[id] = true
	case actHeal:
		clear(s.cut)
	}
}

// proposals makes k proposals of the next commands for node id, whose
// accept replies settle checks.
func (s *stepSim) proposals(id, k int) []proposeReq {
	reqs := make([]proposeReq, k)
	for i := range reqs {
		s.seq++
		reqs[i] = proposeReq{cmd: s.seq, t: &ticket{accept: true}}
	}
	s.nodes[id].accepts = append(s.nodes[id].accepts, reqs...)
	return reqs
}

// reads makes k linearizable reads for node id, whose answers are
// checked against the highest commit index anywhere now.
func (s *stepSim) reads(id, k int) []readReq {
	reqs := make([]readReq, k)
	for i := range reqs {
		ch := make(chan proposeReply, 1)
		s.floor[ch] = s.maxCommit
		s.nodes[id].reads = append(s.nodes[id].reads, ch)
		reqs[i] = readReq{mode: ReadLinearizable, reply: ch}
	}
	return reqs
}

// step runs f on node id as one pass of its main loop and settles it,
// checking first that a pass staging a pre-vote moves no term or vote.
func (s *stepSim) step(id int, f func(nd *Node)) {
	nd := s.nodes[id].nd
	term, vote := nd.el.term, nd.el.votedFor
	f(nd)
	for _, m := range nd.outbox {
		rv, _ := m.payload.(RequestVote)
		rr, _ := m.payload.(RequestVoteReply)
		if (rv.Pre || rr.Pre) && (nd.stateDirty || nd.el.term != term || nd.el.votedFor != vote) {
			s.failf("pre-vote moved node %d from term %d vote %d to term %d vote %d", id, term, vote, nd.el.term, nd.el.votedFor)
		}
	}
	s.settle(id)
}

// diskHas reports whether node id's disk holds e at index, a snapshot
// covering index counting as holding it: only committed entries are
// compacted.
func (s *stepSim) diskHas(id, index int, e Entry) bool {
	d := s.nodes[id].onDisk
	i := index - d.SnapIndex - 1
	return index >= 1 && (i < 0 || i < len(d.Entries) && d.Entries[i] == e)
}

// answered checks a read's answer against the highest index committed
// anywhere when the read began.
func (s *stepSim) answered(ch chan proposeReply, index int, how string) {
	if floor := s.floor[ch]; index < floor {
		s.failf("a read invoked with %d committed was answered at %d by %s", floor, index, how)
	}
}

// send checks what a message claims against the sender's disk as it
// leaves: a vote or a candidacy is on disk, and an AppendEntriesReply's
// term is, and so is the leader's log through its MatchIndex.
func (s *stepSim) send(m simMsg) {
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
		if ch, ok := s.nodes[m.to].nd.relay[p.ID]; ok && p.Success {
			s.answered(ch, p.Index, "the leader's ReadIndexReply")
		}
	}
	s.wire = append(s.wire, m)
}

// settle ends a step on node id as the main loop ends a pass, collects
// what the pass handed the persist worker and the apply worker and the
// accept replies it released, and checks the properties a step can
// break.
func (s *stepSim) settle(id int) {
	sn := s.nodes[id]
	nd := sn.nd
	nd.flush()
	for len(nd.persistQ) > 0 {
		sn.queue = append(sn.queue, <-nd.persistQ)
	}
	for len(nd.applyQ) > 0 { // the apply worker's part
		switch it := <-nd.applyQ; {
		case it.restore != nil:
			if err := sn.kv.RestoreSnapshot(it.restore.index, it.restore.data); err != nil {
				s.failf("node %d restoring %d: %v", id, it.restore.index, err)
			}
			sn.applied = it.restore.index
		default:
			for i, e := range it.entries {
				s.commit(it.first+i, e, it.term)
				sn.kv.Apply(it.first+i, e.Command)
			}
			sn.applied = max(sn.applied, it.first+len(it.entries)-1)
		}
	}
	nd.applied.advance(sn.applied)
	s.maxCommit = max(s.maxCommit, nd.rep.commit)
	waiting := sn.reads[:0]
	for _, ch := range sn.reads {
		select {
		case r := <-ch:
			if r.err == nil {
				s.answered(ch, r.index, "a staged reply")
			}
		default:
			waiting = append(waiting, ch)
		}
	}
	sn.reads = waiting
	kept := sn.accepts[:0]
	for _, a := range sn.accepts {
		if r := a.t.rep; !a.t.resolved {
			kept = append(kept, a)
		} else if r.err == nil && !s.diskHas(id, r.index, Entry{Term: r.term, Command: a.cmd}) {
			s.failf("node %d accepted %v at %d in term %d before its disk held it", id, a.cmd, r.index, r.term)
		}
	}
	sn.accepts = kept
	log := &nd.rep.log
	if len(sn.queue) == 0 { // the disk holds what memory does
		if d := sn.onDisk; d.SnapIndex != log.snapIndex || d.SnapTerm != log.snapTerm || !slices.Equal(d.Entries, log.entries) {
			s.failf("node %d with nothing in flight holds %v in memory and snapshot %d/%d and %d entries on disk",
				id, log, d.SnapIndex, d.SnapTerm, len(d.Entries))
		}
	}
	if term := nd.el.term; nd.el.role == Leader {
		if l, ok := s.leaders[term]; ok && l != id {
			s.failf("election safety: %d and %d both lead term %d", l, id, term)
		} else if !ok { // leader completeness, checked as the reign starts
			s.leaders[term] = id
			for idx, e := range s.committed {
				if got, ok := log.entryAt(idx); s.commitAt[idx] < term && idx > log.snapIndex && (!ok || got != e) {
					s.failf("node %d leads term %d without %v, committed at %d in term %d", id, term, e, idx, s.commitAt[idx])
				}
			}
		}
		// A leader only appends to and compacts its log.
		if l := s.leaderLog[term]; l.snapIndex != log.snapIndex || l.lastIndex() != log.lastIndex() {
			s.leaderLog[term] = raftLog{entries: slices.Clone(log.entries), snapIndex: log.snapIndex, snapTerm: log.snapTerm}
		}
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
func (s *stepSim) commit(index int, e Entry, term int) {
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

// checkSchedules runs -quickchecks seeds (100 by default) of steps
// actions drawn from m at n = 3, 4 and 5, and shows a failing run's
// last actions.
func checkSchedules(t *testing.T, steps int, m *mix) {
	for n := 3; n <= 5; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var fail string
			check := func(seed uint64) bool {
				s := newStepSim(n, seed)
				s.run(steps, m)
				if s.fail != "" {
					fail = fmt.Sprintf("seed %d (pre-vote %v, leases %v): %s; the last actions:\n%s", seed, s.cfg.PreVote,
						s.cfg.LeaseDuration > 0, s.fail, s.lines(len(s.trace)-20))
				}
				return s.fail == ""
			}
			if err := quick.Check(check, nil); err != nil {
				t.Fatal(fail)
			}
		})
	}
}

// lines prints the trace from action from on, one line each.
func (s *stepSim) lines(from int) string {
	var b strings.Builder
	for _, a := range s.trace[max(from, 0):] {
		fmt.Fprintln(&b, a)
	}
	return b.String()
}

// TestStepSimReplays: a seed replays byte for byte — the same actions,
// messages included, and the same disks — crash-restarts and forwarded
// reads among them, whose ids come from the node's clock.
func TestStepSimReplays(t *testing.T) {
	run := func() (string, []PersistentState) {
		s := newStepSim(3, 7)
		s.run(800, &repMix)
		if s.fail != "" {
			t.Fatal(s.fail)
		}
		var disks []PersistentState
		for _, sn := range s.nodes {
			d, _ := sn.disk.Load()
			disks = append(disks, d)
		}
		return s.lines(0), disks
	}
	trace, disks := run()
	if !strings.Contains(trace, "crash") || !strings.Contains(trace, "ReadIndexRequest") {
		t.Fatalf("the run has no crash-restart or no forwarded read:\n%s", trace)
	}
	again, disks2 := run()
	if trace != again {
		a, b := strings.Split(trace, "\n"), strings.Split(again, "\n")
		i := 0
		for i < min(len(a), len(b))-1 && a[i] == b[i] {
			i++
		}
		t.Fatalf("action %d: %s, then %s", i, a[i], b[i])
	}
	if !reflect.DeepEqual(disks, disks2) {
		t.Fatalf("the disks differ: %v, then %v", disks, disks2)
	}
}
