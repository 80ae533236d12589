// Package raft is a from-scratch implementation of the Raft consensus
// algorithm (Ongaro & Ousterhout, USENIX ATC 2014) in the asynchronous
// message-passing model: leader election with randomized timers, log
// replication with conflict repair, commit-index advancement restricted
// to current-term entries, and state-machine application.
//
// On top of the general log-replication machine the package provides what
// the paper's Section 4.3 actually uses:
//
//   - single-decree consensus via the D&S(v) ("decide and stop applying")
//     command and the DecideOnce state machine (the paper's Algorithm 7),
//     and
//   - the decomposition view: Raft as a VacillateAdoptCommit object whose
//     reconciliator is the randomized election timer (Algorithms 10–11).
//
// Timers run against internal/sim.Clock, so the protocol is testable on a
// manually advanced clock and deployable on the real one; messages travel
// over any msgnet.Endpoint (the in-memory simulator or the TCP
// transport).
//
// The package also carries the production features the Raft paper and
// dissertation describe beyond the core protocol: durable Storage for
// term/vote/log/snapshots (crash-recovery with the paper's "wake up with
// an outdated log" semantics — see the restart tests), leader no-op
// entries (§5.4.2), log compaction with InstallSnapshot catch-up (§7),
// the PreVote extension (dissertation §9.6), and a redirect-following
// retrying Client.
package raft

import "fmt"

// The four message types of the paper's Figure 1.

// RequestVote solicits a vote for CandidateID in Term. LastLogIndex and
// LastLogTerm describe the candidate's log so voters can enforce the
// up-to-date restriction. Pre marks a pre-vote probe (Raft dissertation
// §9.6, Config.PreVote): Term is the term the sender would stand in, and
// answering it changes nothing on the receiver, so a processor cut off
// from the majority never inflates its term or deposes a healthy leader.
type RequestVote struct {
	Term         int
	CandidateID  int
	LastLogIndex int
	LastLogTerm  int
	Pre          bool
}

// String implements fmt.Stringer.
func (m RequestVote) String() string {
	return fmt.Sprintf("RequestVote{t=%d cand=%d lastIdx=%d lastTerm=%d pre=%v}",
		m.Term, m.CandidateID, m.LastLogIndex, m.LastLogTerm, m.Pre)
}

// RequestVoteReply is the paper's ack_RequestVote[term, voteGranted];
// Pre echoes the request's. Term is the responder's own term, so a stale
// candidate catches up.
type RequestVoteReply struct {
	Term        int
	VoteGranted bool
	Pre         bool
}

// String implements fmt.Stringer.
func (m RequestVoteReply) String() string {
	return fmt.Sprintf("RequestVoteReply{t=%d granted=%v pre=%v}", m.Term, m.VoteGranted, m.Pre)
}

// AppendEntries carries log entries (or a bare heartbeat / commit-index
// update when Entries is empty) from the leader. The paper distinguishes
// two kinds: the first appends tentative entries, the second only raises
// the commit index; both are this one type, exactly as in Raft.
//
// ReadID piggybacks the linearizable-read fast path (Raft §6.4) on the
// existing replication traffic: it is the leader's latest read-round id,
// echoed back in every same-term reply. A quorum of echoes ≥ id proves
// the sender was still leader after round id began, which confirms every
// pending ReadIndex batch with a smaller or equal id — no log append and
// no fsync per read.
type AppendEntries struct {
	Term         int
	LeaderID     int
	PrevLogIndex int
	PrevLogTerm  int
	Entries      []Entry
	LeaderCommit int
	ReadID       int
}

// String implements fmt.Stringer.
func (m AppendEntries) String() string {
	return fmt.Sprintf("AppendEntries{t=%d leader=%d prev=%d/%d entries=%d commit=%d read=%d}",
		m.Term, m.LeaderID, m.PrevLogIndex, m.PrevLogTerm, len(m.Entries), m.LeaderCommit, m.ReadID)
}

// InstallSnapshot ships a compacted leader's state-machine snapshot to a
// follower whose log gap has been garbage-collected (Raft §7). The
// follower answers with AppendEntriesReply{MatchIndex: LastIncludedIndex}.
type InstallSnapshot struct {
	Term              int
	LeaderID          int
	LastIncludedIndex int
	LastIncludedTerm  int
	Data              []byte
}

// String implements fmt.Stringer.
func (m InstallSnapshot) String() string {
	return fmt.Sprintf("InstallSnapshot{t=%d leader=%d last=%d/%d bytes=%d}",
		m.Term, m.LeaderID, m.LastIncludedIndex, m.LastIncludedTerm, len(m.Data))
}

// AppendEntriesReply is the paper's ack_AppendEntries[term, success],
// extended with MatchIndex: over a raw asynchronous message channel there
// is no RPC session to correlate an ack with its request, so the follower
// reports how far its log provably matches the leader's. (RPC-based Raft
// implementations reconstruct this from the in-flight request instead.)
//
// On rejection, RejectHint carries the highest index that could possibly
// match — min(PrevLogIndex-1, the follower's last index). Because the
// hint is derived from the rejected message itself, the leader's rewind
// makes progress even while pipelined sends have optimistically advanced
// NextIndex past the probe (§5.3's one-decrement-per-reject walk would
// merely undo the optimistic bump and loop forever).
type AppendEntriesReply struct {
	Term       int
	Success    bool
	MatchIndex int
	RejectHint int
	// ReadID echoes the request's read-round id. Even a log-mismatch
	// rejection echoes it: the follower processed a message from this
	// leader in the current term, which is the leadership acknowledgement
	// ReadIndex confirmation needs (the log repair is orthogonal).
	ReadID int
}

// String implements fmt.Stringer.
func (m AppendEntriesReply) String() string {
	return fmt.Sprintf("AppendEntriesReply{t=%d ok=%v match=%d hint=%d read=%d}", m.Term, m.Success, m.MatchIndex, m.RejectHint, m.ReadID)
}

// ReadIndexRequest forwards a follower-received read to the leader (Raft
// §6.4 follower reads): the follower asks the leader for a confirmed
// read index, then serves the read from its own state machine once its
// applied index catches up. Lease carries the client's consistency mode
// so the leader may answer from a held lease without a quorum round.
type ReadIndexRequest struct {
	Term  int   // the follower's current term (stale requests are refused)
	ID    int64 // follower-local correlation id, echoed in the reply
	Lease bool  // true when the client asked for ReadLease semantics
}

// String implements fmt.Stringer.
func (m ReadIndexRequest) String() string {
	return fmt.Sprintf("ReadIndexRequest{t=%d id=%d lease=%v}", m.Term, m.ID, m.Lease)
}

// ReadIndexReply answers a ReadIndexRequest. Success=false means the
// responder is not (or no longer) the leader and the follower should
// fail the read back to its client for a retry.
type ReadIndexReply struct {
	Term    int
	ID      int64
	Index   int // the confirmed read index (valid when Success)
	Success bool
	Lease   bool // the leader served this from a held lease (telemetry)
	// LeaderID names the current leader as the responder knows it, so a
	// failed forward seeds the remote client's leader hint on the first
	// redirect instead of the second. none (-1) when unknown.
	LeaderID int
}

// String implements fmt.Stringer.
func (m ReadIndexReply) String() string {
	return fmt.Sprintf("ReadIndexReply{t=%d id=%d idx=%d ok=%v lease=%v ldr=%d}", m.Term, m.ID, m.Index, m.Success, m.Lease, m.LeaderID)
}
