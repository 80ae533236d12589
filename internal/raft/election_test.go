package raft

import (
	"testing"
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

// elMix is an election's schedule: delivery, drop and duplication,
// persists landing, timers, campaigns, heartbeats, crash-restarts and time
// passing, and nothing proposed, read, compacted or cut.
var elMix = mix{actDeliver: 36, actDrop: 1, actDup: 1, actPersist: 24, actTimer: 2, actCampaign: 1, actHeartbeat: 1,
	actCrash: 1, actTimers: 1, actAdvance: 1}

// TestElectionProperties checks on stepSim under elMix, for n = 3, 4 and
// 5: at most one leader per term; no vote leaves before the persist that
// covers it; and a pre-vote round never changes a term or a vote (with
// every other check stepSim makes). n = 4 is there for the quorum count:
// at odd n, 2c > n and 2c >= n agree.
func TestElectionProperties(t *testing.T) { checkSchedules(t, 300, &elMix) }
