package raft

import (
	"context"
	"fmt"
	"sync"

	"ooc/internal/msgnet"
)

// EventKind enumerates the observable protocol transitions a node emits.
// The VAC view (Algorithm 10) and the experiments are built on these.
type EventKind int

// The event kinds.
const (
	// EventBecameFollower fires on any transition (back) to follower.
	EventBecameFollower EventKind = iota + 1
	// EventBecameCandidate fires when the node starts an election.
	EventBecameCandidate
	// EventBecameLeader fires when the node wins an election.
	EventBecameLeader
	// EventAppended fires when an entry lands in this node's log —
	// tentatively, i.e. the paper's first kind of AppendEntries (or the
	// leader's own append).
	EventAppended
	// EventCommitted fires for each entry whose commit is learned — the
	// paper's second kind of AppendEntries (or the leader counting a
	// majority).
	EventCommitted
	// EventApplied fires when an entry is applied to the state machine.
	EventApplied
	// EventTimeout fires when the election timer expires. In manual-
	// campaign mode (the VAC view) nothing else happens; otherwise the
	// node has started campaigning.
	EventTimeout
)

var eventKindNames = map[EventKind]string{
	EventBecameFollower:  "became-follower",
	EventBecameCandidate: "became-candidate",
	EventBecameLeader:    "became-leader",
	EventAppended:        "appended",
	EventCommitted:       "committed",
	EventApplied:         "applied",
	EventTimeout:         "timeout",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if n, ok := eventKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one observable protocol transition.
type Event struct {
	Kind    EventKind
	Node    int
	Term    int
	Index   int // log index for Appended/Committed/Applied
	Command any // command for Appended/Committed/Applied
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%v{node=%d term=%d idx=%d cmd=%v}", e.Kind, e.Node, e.Term, e.Index, e.Command)
}

// eventQueue is an unbounded FIFO of events: the node's main loop must
// never block on a slow observer, and the VAC view must never lose an
// event, so neither a bounded channel nor best-effort dropping works.
type eventQueue struct {
	mu     sync.Mutex
	events msgnet.Queue[Event]
	closed bool
	notify chan struct{} // 1-buffered wakeup signal
	done   chan struct{}
}

func newEventQueue() *eventQueue {
	return &eventQueue{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// push appends an event; it never blocks.
func (q *eventQueue) push(e Event) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.events.Push(e)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// pop blocks until an event is available, the context is cancelled, or
// the queue closes.
func (q *eventQueue) pop(ctx context.Context) (Event, error) {
	for {
		q.mu.Lock()
		e, ok := q.events.Pop()
		if ok {
			q.mu.Unlock()
			return e, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return Event{}, ErrStopped
		}
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-q.notify:
		case <-q.done:
		}
	}
}

// close wakes all blocked pops.
func (q *eventQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.done)
}
