package raft

import "sync"

// inputs is what reaches the main loop from everywhere but the network and
// the two timers, FIFO within a kind (DESIGN §3.1.2).
type inputs struct {
	persisted []persistDone // completed persist runs, in persistQ order
	status    []chan Status
	proposals []proposeReq
	reads     []readReq
	campaign  *any        // latest Campaign value; a newer call replaces it
	compact   *compactReq // one offer at a time; the apply worker skips while set
	err       error       // first fatal error from a worker
}

// mailbox is the one way in for those inputs. A producer locks mu, adds
// to its kind and calls ring; none of that blocks, so a worker never
// waits on the loop. Queued requests are callers blocked in a synchronous
// call and completions are bounded by persistQ: no queue needs a bound.
type mailbox struct {
	mu sync.Mutex
	inputs
	wake chan struct{} // the doorbell: capacity 1, tokens collapse
}

// ring ends a producer's critical section (the caller holds mu) and wakes
// the loop. Ringing after the push is what rules out a lost wake-up: the
// loop takes the whole box on every token.
func (b *mailbox) ring() {
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default: // a token is already waiting and covers this push too
	}
}

// take moves everything queued into in, proposals and reads up to their
// caps (maxProposalBatch, maxReadBatch), and leaves in's old storage
// behind for the producers to fill, so steady state allocates nothing.
// more: a cap left requests queued.
func (b *mailbox) take(in *inputs) (more bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	in.persisted, b.persisted = b.persisted, in.persisted[:0]
	in.status, b.status = b.status, in.status[:0]
	in.proposals = takeUpTo(&b.proposals, in.proposals, maxProposalBatch)
	in.reads = takeUpTo(&b.reads, in.reads, maxReadBatch)
	in.campaign, in.compact, in.err = b.campaign, b.compact, b.err
	b.campaign, b.compact, b.err = nil, nil, nil
	return len(b.proposals)+len(b.reads) > 0
}

// takeUpTo removes the first max items of *q (all of them when it holds
// no more than that) and returns them, reusing spare's storage.
func takeUpTo[T any](q *[]T, spare []T, max int) []T {
	if len(*q) <= max {
		spare, *q = *q, spare[:0]
		return spare
	}
	spare = append(spare[:0], (*q)[:max]...)
	*q = (*q)[:copy(*q, (*q)[max:])]
	return spare
}
