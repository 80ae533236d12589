package raft

import (
	"slices"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// leaderOf builds node 0 of n, unstarted and diskless, and elects it.
func leaderOf(t *testing.T, n int) *Node {
	t.Helper()
	nd, err := NewNode(Config{ID: 0, Endpoint: netsim.New(n, netsim.WithFIFO()).Node(0), RNG: sim.NewRNG(1),
		StateMachine: &KVStore{}})
	if err != nil {
		t.Fatal(err)
	}
	win(nd)
	return nd
}

// openRound opens a read round on leader nd and returns its id and the
// peers its messages go to, in order, checking that each is an
// entry-less AppendEntries carrying the round or a snapshot.
func openRound(t *testing.T, nd *Node) (round int, to []int) {
	t.Helper()
	r, o := nd.rep.read(time.Time{}, false)
	for _, m := range o.msgs {
		switch p := m.payload.(type) {
		case AppendEntries:
			if len(p.Entries) > 0 || p.ReadID != r.id {
				t.Fatalf("round %d sent peer %d %v, want an empty append carrying the round", r.id, m.to, p)
			}
		case InstallSnapshot:
		default:
			t.Fatalf("round %d sent peer %d a %T", r.id, m.to, p)
		}
		to = append(to, m.to)
	}
	nd.rep.departed()
	return r.id, to
}

// A read round probes the ⌊n/2⌋ followers that make a quorum with the
// leader: those that echoed latest, then the furthest matched, then the
// lowest ids. With no echo in between, every round probes the same ones.
func TestReadRoundProbesAQuorum(t *testing.T) {
	for _, c := range []struct {
		name           string
		n              int
		readAck, match []int // by peer
		want           []int
	}{
		{"n=3, all tied", 3, nil, nil, []int{1}},
		{"n=3, the latest echo", 3, []int{0, 0, 4}, nil, []int{2}},
		{"n=3, the furthest match", 3, nil, []int{0, 0, 1}, []int{2}},
		{"n=5, all tied", 5, nil, nil, []int{1, 2}},
		{"n=5, echo, then match, then id", 5, []int{0, 2, 5, 5, 1}, []int{0, 0, 0, 1, 1}, []int{3, 2}},
		{"n=5, match breaks the tie", 5, nil, []int{0, 0, 1, 0, 1}, []int{2, 4}},
		{"n=4, a quorum of three", 4, []int{0, 3, 0, 3}, nil, []int{1, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			nd := leaderOf(t, c.n)
			for peer := 1; peer < c.n; peer++ {
				p := &nd.rep.peers[peer]
				if c.readAck != nil {
					p.readAck = c.readAck[peer]
				}
				if c.match != nil {
					p.match = c.match[peer]
				}
			}
			for range 10 {
				if round, to := openRound(t, nd); !slices.Equal(to, c.want) {
					t.Fatalf("round %d probed %v, want %v", round, to, c.want)
				}
			}
		})
	}
}

// A follower whose next entry was compacted away is passed by: its probe
// would be a snapshot, which carries no round. The round confirms on the
// other follower's echo, and the laggard is probed only when no other
// follower is left to make the quorum.
func TestReadRoundPassesALaggardBy(t *testing.T) {
	nd := leaderOf(t, 3)
	first, _ := openRound(t, nd)
	nd.handleMessage(msgnet.Message{From: 1, Payload: AppendEntriesReply{Term: nd.el.term, Success: true, ReadID: first}})
	nd.rep.compact(1, nil)
	nd.rep.peers[1].next = 1 // the latest echoer, now behind the snapshot
	nd.outbox = nd.outbox[:0]
	nd.leaderRead(readWaiter{ch: make(chan proposeReply, 1)}, time.Time{})
	if len(nd.reads) != 1 {
		t.Fatalf("%d reads wait on a round, want 1", len(nd.reads))
	}
	round := nd.reads[0].round.id
	var to []int
	for _, m := range nd.outbox {
		to = append(to, m.to)
		if p, ok := m.payload.(AppendEntries); !ok || p.ReadID != round {
			t.Fatalf("round %d sent peer %d %v, want a probe", round, m.to, m.payload)
		}
	}
	if !slices.Equal(to, []int{2}) {
		t.Fatalf("round %d probed %v, want [2]: follower 1 needs the snapshot", round, to)
	}
	nd.handleMessage(msgnet.Message{From: 2, Payload: AppendEntriesReply{Term: nd.el.term, Success: true, MatchIndex: 1, ReadID: round}})
	if len(nd.reads) != 0 || len(nd.rep.rounds) != 0 {
		t.Fatalf("round %d never confirmed on follower 2's echo: %d reads wait, rounds %v", round, len(nd.reads), nd.rep.rounds)
	}
	nd.rep.peers[2].next = 1
	if round, to := openRound(t, nd); !slices.Equal(to, []int{2}) {
		t.Fatalf("round %d with both followers behind the snapshot probed %v, want the latest echoer, [2]", round, to)
	}
}

// When the probed follower goes silent, the next heartbeat answers every
// read waiting on its rounds — one heartbeat interval bounds the delay —
// and later rounds probe the follower that echoed it.
func TestReadRoundOutlivesASilentProbe(t *testing.T) {
	s := leaderSim(3)
	nd := s.nodes[0].nd
	s.do(action{kind: actRead, who: 0, arg: 2})
	if got := onWire(s, 0, 2); len(got) != 0 {
		t.Fatalf("the first round sent follower 2 %v, want nothing: follower 1 is probed", got)
	}
	s.cut[1] = true
	for range 3 {
		s.do(action{kind: actRead, who: 0, arg: 1})
	}
	s.quiet()
	if len(nd.reads) != 5 || len(s.nodes[0].reads) != 5 {
		t.Fatalf("%d reads wait on the leader, %d unanswered; want 5 and 5 behind the silent follower", len(nd.reads), len(s.nodes[0].reads))
	}
	s.clock.Advance(nd.cfg.HeartbeatInterval)
	s.do(action{kind: actHeartbeat, who: 0})
	s.quiet()
	if s.fail != "" {
		t.Fatal(s.fail)
	}
	if len(nd.reads) != 0 || len(s.nodes[0].reads) != 0 {
		t.Fatalf("after a heartbeat %d reads wait on the leader, %d unanswered; want none", len(nd.reads), len(s.nodes[0].reads))
	}
	s.do(action{kind: actRead, who: 0, arg: 1})
	round := nd.reads[0].round.id
	if to1, to2 := onWire(s, 0, 1), onWire(s, 0, 2); len(to1) != 0 || len(to2) != 1 || to2[0].(AppendEntries).ReadID != round {
		t.Fatalf("round %d sent follower 1 %v and follower 2 %v, want a probe to follower 2 alone", round, to1, to2)
	}
	s.quiet()
	if len(nd.reads) != 0 {
		t.Fatalf("round %d never confirmed on follower 2's echo", round)
	}
}
