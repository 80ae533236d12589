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
