package raft

import (
	"context"
	"sync"
	"sync/atomic"
)

// appliedNotifier publishes the node's applied index and current term to
// waiters outside the main loop. The client's SubmitWait used to
// discover applies by polling Status every backoff tick — each poll a
// channel round-trip through the main loop, so a grid of closed-loop
// clients both quantized its own latency to the poll period and stole
// main-loop iterations from the commit pipeline it was waiting on. The
// notifier replaces that with edge-triggered wakeups: the apply worker
// calls advance after each apply batch (one mutex acquisition and, when
// somebody is parked, one channel rotation), and waiters block on a
// closed-channel broadcast without the main loop ever seeing them.
//
// The term rides along because it is the one thing that can make an
// accepted entry NOT reach its index: a leader's log is only ever
// truncated after it has adopted a higher term. A waiter that knows the
// term its entry was accepted in therefore needs no timer — either the
// index is applied or the term moves, and both wake it.
type appliedNotifier struct {
	mu     sync.Mutex
	idx    int
	term   int
	ch     chan struct{} // closed and rotated when idx or term moves with a waiter parked
	parked int           // waiters blocked on ch; at zero (a follower, always) nothing rotates
	// cur mirrors idx for lock-free reads: the apply worker is the
	// advancing side and the main loop polls the value on every read it
	// serves, so the read must not contend with waiter wakeups.
	cur atomic.Int64
}

func newAppliedNotifier(idx, term int) *appliedNotifier {
	a := &appliedNotifier{idx: idx, term: term, ch: make(chan struct{})}
	a.cur.Store(int64(idx))
	return a
}

// advance publishes a new applied index and wakes all current waiters.
// Called only from the apply worker.
func (a *appliedNotifier) advance(idx int) {
	a.mu.Lock()
	if idx > a.idx {
		a.idx = idx
		a.cur.Store(int64(idx))
		a.wake()
	}
	a.mu.Unlock()
}

// wake releases everyone parked on ch; the caller holds mu. A waiter that
// left by its context stays counted and costs one spare rotation.
func (a *appliedNotifier) wake() {
	if a.parked > 0 {
		a.parked = 0
		close(a.ch)
		a.ch = make(chan struct{})
	}
}

// setTerm publishes the node's term and wakes all current waiters.
// Called only from the main loop, wherever currentTerm moves.
func (a *appliedNotifier) setTerm(term int) {
	a.mu.Lock()
	if term != a.term {
		a.term = term
		a.wake()
	}
	a.mu.Unlock()
}

// current reads the published applied index without the lock.
func (a *appliedNotifier) current() int {
	return int(a.cur.Load())
}

// anyTerm makes wait ignore term changes.
const anyTerm = -1

// wait blocks until the published applied index reaches index, the
// published term differs from term (unless term is anyTerm), ctx ends,
// or stop closes. It returns the last applied index it observed; below
// index with a nil error, the term moved. Both conditions are levels: a
// term change that lands before wait is called is seen on entry.
func (a *appliedNotifier) wait(ctx context.Context, stop <-chan struct{}, index, term int) (int, error) {
	for {
		a.mu.Lock()
		idx, cur, ch := a.idx, a.term, a.ch
		done := idx >= index || (term != anyTerm && cur != term)
		if !done {
			a.parked++ // in the section that read ch: the next change sees it
		}
		a.mu.Unlock()
		if done {
			return idx, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return idx, ctx.Err()
		case <-stop:
			return idx, ErrStopped
		}
	}
}

// AwaitApplied blocks until this node's state machine has applied the
// log through index, returning the applied index it observed. It
// returns early with an error when ctx ends or the node stops. Unlike
// Status polling it wakes at the apply itself and costs the protocol
// loop nothing.
//
// Reaching index says nothing about WHICH entry was applied there: an
// entry can be truncated by a new leader and replaced at the same
// index. Callers that submitted the entry (Client.SubmitWait) wait on
// the accepting term as well and, once it has moved, combine this with
// a Status check for the truncation races.
func (nd *Node) AwaitApplied(ctx context.Context, index int) (int, error) {
	idx, err := nd.applied.wait(ctx, nd.stopped, index, anyTerm)
	if err == ErrStopped {
		err = nd.stopErr
	}
	return idx, err
}
