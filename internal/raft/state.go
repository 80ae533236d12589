package raft

import "fmt"

// State is the processor's role, one of the paper's Figure 2 states.
type State int

// The three Raft states.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

var stateNames = map[State]string{
	Follower:  "follower",
	Candidate: "candidate",
	Leader:    "leader",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// none marks an empty VotedFor.
const none = -1

// hardState is the paper's Figure 2 less currentTerm and votedFor, which
// the election core holds. The leader-only arrays live in leaderState,
// reinitialized on every election as the paper prescribes; lastApplied
// belongs to the apply worker, which publishes it through Node.applied.
type hardState struct {
	log         raftLog
	commitIndex int
}

// leaderState holds NextIndex[] and MatchIndex[], valid only while
// leader and only for the current term, plus the per-peer replication
// pipeline: inflight lists the unacknowledged entry-carrying
// AppendEntries by the last index each carried, oldest first (bounded by
// maxInflightAppends), and acked records whether any reply
// arrived since the last heartbeat tick so a stalled pipeline (lost
// messages) can be detected and rewound to matchIndex+1.
type leaderState struct {
	nextIndex  []int
	matchIndex []int
	inflight   [][]int
	acked      []bool
	// readAck[p] is the highest read-round id peer p has echoed this term
	// (see AppendEntries.ReadID). Monotonic, so an echo of id X confirms
	// every pending ReadIndex round with id ≤ X.
	readAck []int
}

// newLeaderState initializes the arrays after winning an election:
// NextIndex to the leader's last log entry + 1, MatchIndex to 0.
func newLeaderState(n, lastLogIndex int) *leaderState {
	ls := &leaderState{
		nextIndex:  make([]int, n),
		matchIndex: make([]int, n),
		inflight:   make([][]int, n),
		acked:      make([]bool, n),
		readAck:    make([]int, n),
	}
	for i := range ls.nextIndex {
		ls.nextIndex[i] = lastLogIndex + 1
	}
	return ls
}

// ackThrough retires every in-flight append to peer that ended at or
// below match. A reply to a heartbeat or a read probe acknowledges
// nothing new and so frees no slot — the window counts appends, not
// replies.
func (ls *leaderState) ackThrough(peer, match int) {
	q := ls.inflight[peer]
	done := 0
	for done < len(q) && q[done] <= match {
		done++
	}
	if done > 0 {
		ls.inflight[peer] = q[:copy(q, q[done:])]
	}
}

// Status is a read-only snapshot of a node's state, safe to request from
// any goroutine.
type Status struct {
	ID            int
	Term          int
	State         State
	LeaderID      int // none (-1) when unknown
	CommitIndex   int
	LastApplied   int
	LogLength     int
	LastLogTerm   int
	SnapshotIndex int // last compacted index (0 = nothing compacted)
}

// String implements fmt.Stringer.
func (s Status) String() string {
	return fmt.Sprintf("node %d: term=%d state=%v leader=%d commit=%d applied=%d log=%d",
		s.ID, s.Term, s.State, s.LeaderID, s.CommitIndex, s.LastApplied, s.LogLength)
}
