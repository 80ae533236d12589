package raft

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ooc/internal/sim"
)

// elCore builds node id's election core for a group of n, at term.
func elCore(id, n, term int, cfg Config, log *raftLog) *election {
	cfg.ID, cfg.RNG = id, sim.NewRNG(uint64(id)+1)
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 100 * time.Millisecond
	}
	e := newElection(&cfg, n, log)
	e.term = term
	return &e
}

// TestElectionRoundEndsOnLeaderContact: a pre-vote round's grants belong
// to it. Hearing from the term's leader ends the round, and so does
// standing for election, so a late grant moves nothing.
func TestElectionRoundEndsOnLeaderContact(t *testing.T) {
	now := time.Unix(0, 0)
	for _, tc := range []struct {
		name      string
		interrupt func(e *election) elOut
		role      State
		term      int
	}{
		{"append from the leader", func(e *election) elOut {
			return e.receive(1, AppendEntries{Term: 1, LeaderID: 1}, now)
		}, Follower, 1},
		{"snapshot from the leader", func(e *election) elOut {
			return e.receive(1, InstallSnapshot{Term: 1, LeaderID: 1}, now)
		}, Follower, 1},
		{"campaign", func(e *election) elOut { return e.campaign(now) }, Candidate, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := elCore(0, 3, 1, Config{PreVote: true}, &raftLog{})
			if o := e.tick(now); !o.timeout || o.vote.payload != (RequestVote{Term: 2, CandidateID: 0, Pre: true}) {
				t.Fatalf("timeout: %+v, want a probe for term 2", o)
			}
			tc.interrupt(e)
			o := e.receive(2, RequestVoteReply{Term: 1, VoteGranted: true, Pre: true}, now)
			if e.role != tc.role || e.term != tc.term || o.persist || o.enter != 0 {
				t.Fatalf("a late pre-vote grant left %v in term %d (%+v), want %v in term %d", e.role, e.term, o, tc.role, tc.term)
			}
		})
	}
}

// TestElectionLeaderCountsAsLive: the liveness predicate counts this
// node's own reign, so a leader refuses a probe however long it has led,
// and with stickiness a vote too, without leaving its term.
func TestElectionLeaderCountsAsLive(t *testing.T) {
	now := time.Unix(0, 0)
	for _, tc := range []struct {
		cfg Config
		req RequestVote
	}{
		{Config{PreVote: true}, RequestVote{Term: 2, CandidateID: 1, Pre: true}},
		{Config{LeaseDuration: time.Millisecond}, RequestVote{Term: 2, CandidateID: 1}},
	} {
		e := elCore(0, 3, 0, tc.cfg, &raftLog{})
		e.campaign(now)
		e.receive(2, RequestVoteReply{Term: 1, VoteGranted: true}, now)
		if e.role != Leader {
			t.Fatalf("%+v: not elected", tc.req)
		}
		later := e.deadline.Add(time.Hour) // long past any deadline it drew
		o := e.receive(1, tc.req, later)
		if r := o.vote.payload.(RequestVoteReply); r.VoteGranted || e.role != Leader || e.term != 1 || o.persist {
			t.Fatalf("%+v to a leader: %v, now %v in term %d", tc.req, r, e.role, e.term)
		}
	}
}

// The properties below run the election core alone — no goroutines, no
// netsim, no clock — for a group of n under an adversarial schedule:
// random delivery, drop and duplication, timer firings, manual
// campaigns, leader heartbeats, persists landing, and crash-restarts from
// the term and vote of the last persist that landed. A message that
// claims hard state waits behind every persist staged or in flight, as
// flush() holds it, and a crash loses it.
type elSim struct {
	n       int
	rng     *sim.RNG
	cfg     Config
	now     time.Time
	nodes   []*elNode
	net     []elMsg // in flight
	leaders map[int]int
	fail    string
}

type elMsg struct {
	from, to int
	payload  any
}

type elNode struct {
	e        *election
	log      raftLog
	disk     [2]int    // term and vote of the last persist that landed
	inflight []elBatch // persists staged and not landed, FIFO
}

type elBatch struct {
	term, vote int
	held       []elMsg
}

func newElSim(n int, seed uint64) *elSim {
	s := &elSim{n: n, rng: sim.NewRNG(seed), now: time.Unix(0, 0), leaders: map[int]int{}}
	s.cfg = Config{PreVote: s.rng.Bool(), ElectionTimeout: 100 * time.Millisecond}
	if s.rng.Bool() {
		s.cfg.LeaseDuration = 90 * time.Millisecond
	}
	for id := 0; id < n; id++ {
		nd := &elNode{disk: [2]int{0, none}}
		nd.e = elCore(id, n, 0, s.cfg, &nd.log)
		nd.e.rng = sim.NewRNG(seed<<8 | uint64(id))
		s.nodes = append(s.nodes, nd)
	}
	return s
}

func (s *elSim) failf(format string, args ...any) {
	if s.fail == "" {
		s.fail = fmt.Sprintf(format, args...)
	}
}

// step carries out node id's output as applyElection and flush() do,
// checking the properties that can be seen at a step.
func (s *elSim) step(id int, before election, o elOut) {
	nd := s.nodes[id]
	e := nd.e
	if o.enter == Leader {
		if l, ok := s.leaders[e.term]; ok && l != id {
			s.failf("election safety: %d and %d both lead term %d", l, id, e.term)
		}
		s.leaders[e.term] = id
	}
	pre := false
	switch m := o.vote.payload.(type) {
	case RequestVote:
		pre = m.Pre
	case RequestVoteReply:
		pre = m.Pre
	}
	if pre && (o.persist || e.term != before.term || e.votedFor != before.votedFor) {
		s.failf("pre-vote moved node %d from term %d vote %d to term %d vote %d", id, before.term, before.votedFor, e.term, e.votedFor)
	}
	if o.persist {
		nd.inflight = append(nd.inflight, elBatch{term: e.term, vote: e.votedFor})
	}
	if o.vote.payload == nil {
		return
	}
	for to := 0; to < s.n; to++ {
		if to == id || o.vote.to != none && o.vote.to != to {
			continue
		}
		m := elMsg{from: id, to: to, payload: o.vote.payload}
		if o.vote.claim.state && len(nd.inflight) > 0 {
			b := &nd.inflight[len(nd.inflight)-1]
			b.held = append(b.held, m)
			continue
		}
		s.send(m)
	}
}

// send puts a message on the wire, checking that a vote — a grant or a
// candidate's own — leaves only once the sender's disk holds it.
func (s *elSim) send(m elMsg) {
	from, disk := m.from, s.nodes[m.from].disk
	switch p := m.payload.(type) {
	case RequestVote:
		if !p.Pre && (disk[0] < p.Term || disk[0] == p.Term && disk[1] != from) {
			s.failf("node %d asked for votes in term %d with term %d vote %d on disk", from, p.Term, disk[0], disk[1])
		}
	case RequestVoteReply:
		if !p.Pre && p.VoteGranted && (disk[0] < p.Term || disk[0] == p.Term && disk[1] != m.to) {
			s.failf("node %d granted %d its vote in term %d with term %d vote %d on disk", from, m.to, p.Term, disk[0], disk[1])
		}
	}
	s.net = append(s.net, m)
}

func (s *elSim) run(steps int) {
	for i := 0; i < steps && s.fail == ""; i++ {
		id := s.rng.Intn(s.n)
		nd := s.nodes[id]
		before := *nd.e
		switch k := s.rng.Intn(32); {
		case k < 20 && len(s.net) > 0: // deliver; 18: drop; 19: deliver and keep a copy
			j := s.rng.Intn(len(s.net))
			m := s.net[j]
			if k != 19 {
				s.net[j] = s.net[len(s.net)-1]
				s.net = s.net[:len(s.net)-1]
			}
			if k != 18 {
				to := s.nodes[m.to]
				before = *to.e
				s.step(m.to, before, to.e.receive(m.from, m.payload, s.now))
			}
		case k >= 20 && k < 26: // the oldest persist lands, here or at the next node with one
			for j := 1; j < s.n && len(nd.inflight) == 0; j++ {
				nd = s.nodes[(id+j)%s.n]
			}
			if len(nd.inflight) == 0 {
				break
			}
			b := nd.inflight[0]
			nd.inflight = nd.inflight[1:]
			nd.disk = [2]int{b.term, b.vote}
			for _, m := range b.held {
				s.send(m)
			}
		case k == 26 || k == 27: // the timer fires
			if nd.e.deadline.After(s.now) {
				s.now = nd.e.deadline
			}
			s.step(id, before, nd.e.tick(s.now))
		case k == 28:
			s.step(id, before, nd.e.campaign(s.now))
		case k == 29 && nd.e.role == Leader: // a heartbeat round
			for to := 0; to < s.n; to++ {
				if to != id {
					s.net = append(s.net, elMsg{id, to, AppendEntries{Term: nd.e.term, LeaderID: id}})
				}
			}
		case k == 30: // crash and restart from the disk
			nd.inflight = nil
			nd.e = elCore(id, s.n, nd.disk[0], s.cfg, &nd.log)
			nd.e.votedFor = nd.disk[1]
			nd.e.rng = sim.NewRNG(s.rng.Uint64())
		case k == 31: // time passes, and every timer due fires at once
			s.now = s.now.Add(time.Duration(s.rng.Intn(2 * int(s.cfg.ElectionTimeout))))
			for id, nd := range s.nodes {
				s.step(id, *nd.e, nd.e.tick(s.now))
			}
		}
	}
}

// TestElectionProperties checks, for n = 3, 4 and 5: at most one leader
// per term; no vote leaves before the persist that covers it; and a
// pre-vote round never changes a term or a vote. n = 4 is there for the
// quorum count: at odd n, 2c > n and 2c >= n agree.
func TestElectionProperties(t *testing.T) {
	for n := 3; n <= 5; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var fail string
			check := func(seed uint64) bool {
				s := newElSim(n, seed)
				s.run(300)
				if s.fail != "" {
					fail = fmt.Sprintf("seed %d (pre-vote %v, leases %v): %s", seed, s.cfg.PreVote, s.cfg.LeaseDuration > 0, s.fail)
				}
				return s.fail == ""
			}
			if err := quick.Check(check, nil); err != nil { // -quickchecks cases, 100 by default
				t.Fatal(fail)
			}
		})
	}
}
