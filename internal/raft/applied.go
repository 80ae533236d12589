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
//
// A proposal's accept reply arrives here too, as the resolution of its
// ticket, so a write parks once: on this broadcast, from its proposal to
// its apply. And the notifier owns stop, so no waiter selects on more
// than its wake and its own context.
type appliedNotifier struct {
	mu     sync.Mutex
	idx    int
	term   int
	err    error         // non-nil once the node stopped: what every waiter gets
	ch     chan struct{} // closed and rotated when a waiter parked on it can return
	parked int           // waiters blocked on ch; at zero (a follower, always) nothing rotates
	// cur mirrors idx for lock-free reads: the apply worker is the
	// advancing side and the main loop polls the value on every read it
	// serves, so the read must not contend with waiter wakeups.
	cur atomic.Int64
}

// ticket is one proposal's claim on its accept reply. The main loop
// resolves it under the notifier's lock (resolve); its caller waits for
// it there (wait). Every field but accept is guarded by the lock.
type ticket struct {
	rep      proposeReply
	resolved bool
	// accept: the caller returns with the accept reply (Propose, Submit).
	// Otherwise it goes on waiting, in the same park, until the entry is
	// applied or the accepting term moves (SubmitWait).
	accept bool
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

// stop makes every wait, parked or to come, return err.
func (a *appliedNotifier) stop(err error) {
	a.mu.Lock()
	a.err = err
	a.wake()
	a.mu.Unlock()
}

// resolve hands out the tickets among rs, all under one lock, and wakes
// the waiters once if any of them can now return — which a successful
// SubmitWait accept can only when its entry is already applied (a fenced
// accept that landed after the apply) or its term already moved. Called
// only from the main loop.
func (a *appliedNotifier) resolve(rs []stagedReply) {
	a.mu.Lock()
	wake := false
	for _, r := range rs {
		if r.t != nil {
			r.t.rep, r.t.resolved = r.reply, true
			wake = wake || a.finished(r.t)
		}
	}
	if wake {
		a.wake()
	}
	a.mu.Unlock()
}

// finished reports whether t's waiter can return; the caller holds mu.
func (a *appliedNotifier) finished(t *ticket) bool {
	return t.resolved && (t.accept || t.rep.err != nil || a.idx >= t.rep.index ||
		t.rep.term != anyTerm && a.term != t.rep.term)
}

// current reads the published applied index without the lock.
func (a *appliedNotifier) current() int {
	return int(a.cur.Load())
}

// anyTerm makes wait ignore term changes.
const anyTerm = -1

// wait blocks until t's waiter can return (finished), ctx ends, or the
// node stops, and returns t's reply and the last applied index it
// observed. A resolved success below that index means the term moved.
// Every condition is a level: a term change or an apply that lands before
// wait is called is seen on entry.
func (a *appliedNotifier) wait(ctx context.Context, t *ticket) (proposeReply, int, error) {
	for {
		a.mu.Lock()
		idx, rep, err, ch := a.idx, t.rep, a.err, a.ch
		done := a.finished(t)
		if !done && err == nil {
			a.parked++ // in the section that read ch: the next change sees it
		}
		a.mu.Unlock()
		if done {
			return rep, idx, nil
		}
		if err != nil {
			return proposeReply{}, idx, err
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return proposeReply{}, idx, ctx.Err()
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
	t := ticket{rep: proposeReply{index: index, term: anyTerm}, resolved: true}
	_, idx, err := nd.applied.wait(ctx, &t)
	return idx, err
}
