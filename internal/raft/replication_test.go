package raft

import (
	"context"
	"testing"
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

// TestReplicationFigure8 plays the schedule of Raft's Figure 8 on five
// processors: an entry of an earlier term held by a majority must not be
// committed by counting, because a later leader may still overwrite it;
// only an entry of the leader's own term commits it (§5.4.2). Leaders are
// set through the cores, without the term-opening no-op, which would
// mask the rule; commands are numbered as proposed.
func TestReplicationFigure8(t *testing.T) {
	s := newStepSim(5, 1)
	lead := func(id, term int) {
		nd := s.nodes[id].nd
		nd.el.term, nd.el.role, nd.el.leader = term, Leader, id
		nd.rep.win()
	}
	s1, s5 := s.nodes[0].nd, s.nodes[4].nd
	// S1 leads term 1 and commits index 1 everywhere.
	lead(0, 1)
	s.do(action{kind: actPropose, who: 0, arg: 1})
	s.quiet()
	// (a) S1 leads term 2 and replicates index 2 to S2 only.
	s.cut = []bool{false, false, true, true, true}
	lead(0, 2)
	s.do(action{kind: actPropose, who: 0, arg: 1})
	s.quiet()
	// (b) S5 leads term 3 with votes from S3 and S4, and writes its own
	// index 2 to its own log only.
	s.cut = []bool{false, false, false, false, true}
	lead(4, 3)
	s.do(action{kind: actPropose, who: 4, arg: 1})
	s.quiet()
	// (c) S1 leads term 4 and replicates index 2 to S3: S1, S2 and S3
	// now hold it, a majority, and nothing of term 4 is anywhere.
	s.cut = []bool{false, false, false, true, true}
	lead(0, 4)
	s.do(action{kind: actHeartbeat, who: 0})
	s.quiet()
	if t2, _ := s.nodes[2].nd.rep.log.termAt(2); t2 != 2 || s1.rep.peers[1].match != 2 || s1.rep.peers[2].match != 2 {
		t.Fatalf("setup: S3 holds term %d at 2, S1 has S2 at %d and S3 at %d; want term 2 and both at 2",
			t2, s1.rep.peers[1].match, s1.rep.peers[2].match)
	}
	if s1.rep.commit != 1 {
		t.Fatalf("S1 committed through %d in term 4 off a majority holding a term-2 entry", s1.rep.commit)
	}
	// (d) S1 is gone. S5 leads term 5 with votes from S2, S3 and S4 (its
	// last term, 3, beats their 2), and its entries overwrite index 2
	// everywhere it reaches.
	s.cut = []bool{true, false, false, false, false}
	lead(4, 5)
	s.do(action{kind: actPropose, who: 4, arg: 1})
	s.quiet()
	if s5.rep.commit != 3 {
		t.Fatalf("S5 committed through %d, want 3", s5.rep.commit)
	}
	for id, sn := range s.nodes {
		if e, _ := sn.nd.rep.log.entryAt(2); sn.nd.rep.commit >= 2 && e.Command != 3 {
			t.Fatalf("node %d committed %v at index 2, S5 committed 3", id, e.Command)
		}
	}
	if s.fail != "" {
		t.Fatal(s.fail)
	}
}

// repMix is replication's schedule: everything elMix does but time
// passing on its own, and proposals, local and forwarded reads,
// compactions, and a leader cut off for a while, so that installs over
// conflicting logs happen.
var repMix = mix{actDeliver: 114, actDrop: 3, actDup: 3, actPersist: 48, actTimer: 3, actCampaign: 3, actHeartbeat: 12,
	actPropose: 10, actRead: 10, actCompact: 15, actCrash: 3, actCut: 10, actHeal: 1}

// TestReplicationProperties checks on stepSim under repMix, for n = 3, 4
// and 5: log matching; leader completeness; state-machine safety, and
// that a committed entry is on a majority of disks; that no
// AppendEntriesReply and no proposal acceptance leaves before the persist
// that covers its claim; that a node with no persist in flight holds on
// disk the snapshot marker and the entries it holds in memory; and that
// every read is answered at an index no lower than any node's commit
// index when it began (with every other check stepSim makes).
func TestReplicationProperties(t *testing.T) { checkSchedules(t, 400, &repMix) }
