package raft

import (
	"time"

	"ooc/internal/sim"
)

// election is terms and votes as one pure state machine: the paper's
// stalemate breaker (the randomized timer, Alg. 11) and the front of its
// agreement detector (candidate → leader, Alg. 10). Node drives it: each
// entry point takes the time from its caller and returns an elOut, which
// the node carries out in applyElection. The core owns no clock, channel,
// goroutine or telemetry, and the node's RNG is its only randomness.
type election struct {
	id, n   int
	base    time.Duration // T: a deadline lies uniformly in [T, 2T) ahead
	rng     *sim.RNG
	log     *raftLog // read only: the up-to-date check and a candidate's request
	preVote bool     // Config.PreVote: probe before standing
	manual  bool     // Config.ManualCampaign: a timeout only reports itself
	sticky  bool     // leases on: no vote while a leader is live (§4.2.3)

	term     int // currentTerm
	votedFor int // none if unset in term
	role     State
	leader   int // last known leader of term; none if unknown
	deadline time.Time
	// votes is the open round's grant set, this node's own included, nil
	// when none is open; pre marks a pre-vote round, whose quorum would
	// elect this node in term+1. A role change or a leader's message ends
	// the round.
	votes map[int]bool
	pre   bool
}

// elOut is what one election step asks of its driver.
type elOut struct {
	persist bool  // term or vote changed: stage SetState
	newTerm bool  // the term moved
	timeout bool  // the election timer fired
	enter   State // the role entered, 0 if none; a campaign won alone enters Leader
	// vote is the vote message to stage (nil payload: none): a
	// RequestVote to every peer (to == none), or a reply to its asker.
	vote outMsg
}

func newElection(cfg *Config, n int, log *raftLog) election {
	return election{id: cfg.ID, n: n, base: cfg.ElectionTimeout, rng: cfg.RNG, log: log,
		preVote: cfg.PreVote, manual: cfg.ManualCampaign, sticky: cfg.LeaseDuration > 0,
		votedFor: none, role: Follower, leader: none}
}

// push draws the next deadline, uniform in [T, 2T) after now.
func (e *election) push(now time.Time) {
	e.deadline = now.Add(e.base + time.Duration(e.rng.Int63()%int64(e.base)))
}

// leaderAlive is the liveness predicate of both the pre-vote and the
// stickiness rule: this node leads, or heard from its leader within the
// current deadline.
func (e *election) leaderAlive(now time.Time) bool {
	return e.role == Leader || e.leader != none && now.Before(e.deadline)
}

// tick is the election timer. Past the deadline it draws the next one,
// and a follower or candidate starts over — "if Timer T runs out:
// initialize T randomly, increment term and start algorithm 7" — by a
// probe first with PreVote, and not at all with ManualCampaign, where the
// application owns the timeout's consequence.
func (e *election) tick(now time.Time) elOut {
	if now.Before(e.deadline) {
		return elOut{}
	}
	e.push(now)
	if e.role == Leader {
		return elOut{}
	}
	var o elOut
	switch {
	case e.preVote && !e.manual:
		o = e.open(true, now)
	case !e.manual:
		o = e.campaign(now)
	}
	o.timeout = true
	return o
}

// campaign stands for election in the next term, with this node's vote.
func (e *election) campaign(now time.Time) elOut {
	e.term++
	e.votedFor, e.role, e.leader = e.id, Candidate, none
	e.push(now)
	o := e.open(false, now)
	o.persist, o.newTerm, o.enter = true, true, max(o.enter, Candidate) // Leader if it won alone
	return o
}

// open starts a round with this node's own grant and asks every peer.
// A request speaks for the term and self-vote it carries, so it claims
// hard state; a probe changes nothing and claims nothing.
func (e *election) open(pre bool, now time.Time) elOut {
	e.votes, e.pre = map[int]bool{e.id: true}, pre
	rv := RequestVote{Term: e.term, CandidateID: e.id, LastLogIndex: e.log.lastIndex(), LastLogTerm: e.log.lastTerm(), Pre: pre}
	if pre {
		rv.Term++
	}
	return e.tally(elOut{vote: outMsg{to: none, payload: rv, claim: claim{state: !pre}}}, now)
}

// tally is the one quorum count: a pre-vote quorum starts the campaign,
// a vote quorum makes this node leader.
func (e *election) tally(o elOut, now time.Time) elOut {
	switch {
	case 2*len(e.votes) <= e.n:
		return o
	case e.pre:
		return e.campaign(now)
	}
	e.role, e.leader, e.votes = Leader, e.id, nil
	o.enter = Leader
	return o
}

// receive is the one term rule, run on every message it heeds: a later
// term makes this node a follower in it, and a leader's message in this
// term makes it that leader's follower. Its two exceptions are vote
// requests (see onRequestVote): a pre-vote never moves the term, and
// neither does a vote refused for a live leader.
func (e *election) receive(from int, msg any, now time.Time) elOut {
	switch m := msg.(type) {
	case RequestVote:
		return e.onRequestVote(from, m, now)
	case RequestVoteReply:
		return e.onVoteReply(from, m, now)
	}
	if !e.heeds(msg) {
		return elOut{}
	}
	term, leader, _ := termOf(msg)
	return e.follow(term, leader, now)
}

// heeds reports whether receive can act on msg — a vote message, a
// leader's message in this term or a later one, any message from a later
// term — so that the node reads its clock for those alone.
func (e *election) heeds(msg any) bool {
	term, leader, vote := termOf(msg)
	return vote || term > e.term || term == e.term && leader != none
}

// termOf is what the term rule reads off a message: its term, its sender
// when a leader sent it (none otherwise), and whether it is a vote
// message, which the rule reads whole.
func termOf(msg any) (term, leader int, vote bool) {
	switch m := msg.(type) {
	case RequestVote, RequestVoteReply:
		return 0, none, true
	case AppendEntries:
		return m.Term, m.LeaderID, false
	case InstallSnapshot:
		return m.Term, m.LeaderID, false
	case AppendEntriesReply:
		return m.Term, none, false
	case ReadIndexRequest:
		return m.Term, none, false
	case ReadIndexReply:
		return m.Term, none, false
	}
	return 0, none, false
}

// follow makes this node leader's follower (none: unknown) in term, not
// behind its own, and ends any round.
func (e *election) follow(term, leader int, now time.Time) elOut {
	var o elOut
	if term > e.term {
		e.term, e.votedFor = term, none
		o.persist, o.newTerm = true, true
	}
	if e.role != Follower {
		o.enter = Follower
	}
	e.role, e.leader, e.votes = Follower, leader, nil
	e.push(now)
	return o
}

// onRequestVote is the one grant rule, for votes and pre-votes alike: no
// leader is live (asked of every pre-vote, of a vote under stickiness),
// the request's term is one in which this node has given its vote to
// nobody else, and the candidate's log is at least as up to date. Only a
// vote grant records a vote; the reply names this node's term, and for a
// vote waits for it on disk.
func (e *election) onRequestVote(from int, m RequestVote, now time.Time) elOut {
	var o elOut
	live := (m.Pre || e.sticky) && e.leaderAlive(now)
	if !m.Pre && !live && m.Term > e.term {
		o = e.follow(m.Term, none, now)
	}
	vote := e.votedFor
	if m.Term > e.term {
		vote = none // a probe for a term this node has not reached
	}
	grant := !live && m.Term >= e.term && (vote == none || vote == m.CandidateID) &&
		e.log.upToDate(m.LastLogIndex, m.LastLogTerm)
	if grant && !m.Pre {
		e.votedFor, o.persist = m.CandidateID, true
		e.push(now)
	}
	o.vote = outMsg{to: from, payload: RequestVoteReply{Term: e.term, VoteGranted: grant, Pre: m.Pre}, claim: claim{state: !m.Pre}}
	return o
}

// onVoteReply counts a grant into the open round of its kind. A vote
// counts only in the term it was given for; a pre-vote grant names the
// voter's own term, which may trail this node's.
func (e *election) onVoteReply(from int, m RequestVoteReply, now time.Time) elOut {
	if m.Term > e.term {
		return e.follow(m.Term, none, now)
	}
	if e.votes == nil || m.Pre != e.pre || !m.VoteGranted || !m.Pre && m.Term != e.term {
		return elOut{}
	}
	e.votes[from] = true
	return e.tally(elOut{}, now)
}
