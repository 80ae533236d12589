// Package msgnet defines the minimal message-passing surface every
// protocol in this repository is written against. Two implementations
// exist: the in-memory simulated network (internal/netsim) and the real
// TCP transport (internal/transport). Protocol code never knows which one
// it is running on.
package msgnet

import (
	"context"
	"errors"
)

// Message is one point-to-point message. Payload is protocol-defined; on
// the wire transport it must be one of the binary codec's types.
type Message struct {
	From    int
	To      int
	Payload any
}

// Endpoint is one processor's handle on the network.
//
// Recv blocks until a message is available, the context is cancelled, or
// the endpoint is crashed/closed. Send and Broadcast never block on the
// receiver; delivery order between distinct messages is NOT guaranteed —
// the simulated network deliberately reorders to model asynchrony.
//
// Ready and TryRecv are the non-blocking pair Recv is built from, for a
// consumer that already owns a select loop and would otherwise need a
// goroutine just to pump Recv into a channel. An endpoint has ONE
// consumer: either callers of Recv or one loop over Ready/TryRecv.
type Endpoint interface {
	// ID is this processor's index in [0, N).
	ID() int
	// N is the total number of processors on the network.
	N() int
	// Send enqueues payload for processor to (sending to self is legal).
	Send(to int, payload any) error
	// Broadcast sends payload to every processor, including the sender.
	// The paper's pseudocode "send to all" includes the sender itself.
	Broadcast(payload any) error
	// Recv returns the next delivered message.
	Recv(ctx context.Context) (Message, error)
	// Ready returns the endpoint's wake-up channel: it yields a token
	// after a delivery, a crash or a close. Tokens collapse — one may
	// stand for many messages, and one may arrive with nothing left to
	// take — so it is an edge, not a count: call TryRecv until it
	// reports ok=false before waiting on Ready, and again after every
	// token. The channel is the same one for the endpoint's lifetime.
	Ready() <-chan struct{}
	// TryRecv takes the next delivered message without blocking.
	// ok=false with a nil error means nothing is pending; a non-nil
	// error means the endpoint is crashed or closed, and is what every
	// later call returns too.
	TryRecv() (Message, bool, error)
	// Inbox is the receive side Ready and TryRecv read the own lane of,
	// and the one a Mux routes its channels out of. A mux sub-endpoint
	// has none (nil): muxes do not nest.
	Inbox() *Inbox
}

// Recv is the blocking receive every Endpoint implements Recv with: one
// loop over the endpoint's own Ready/TryRecv pair. The context is
// checked before each take, so a cancelled receiver never removes a
// message a successor on the same endpoint should see (crash-recovery
// boots a fresh node on the old id).
func Recv(ctx context.Context, e Endpoint) (Message, error) {
	for {
		if err := ctx.Err(); err != nil {
			return Message{}, err
		}
		m, ok, err := e.TryRecv()
		if ok || err != nil {
			return m, err
		}
		select {
		case <-ctx.Done():
			return Message{}, ctx.Err()
		case <-e.Ready():
		}
	}
}

// Queue is the unbounded FIFO behind an inbox's lanes (and raft's
// event streams). It is consumed from a head index: a pop zeroes the
// vacated slot, so a taken payload is not kept reachable, and a pop that
// drains the queue rewinds it onto the same backing array, so steady
// traffic stops allocating. The zero value is empty; callers lock.
type Queue[T any] struct {
	items []T
	head  int
}

// Push appends v.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Len reports how many elements are queued.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Pop removes and returns the oldest element.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	var zero T
	v, q.items[q.head] = q.items[q.head], zero
	q.head++
	if q.head == len(q.items) {
		q.head, q.items = 0, q.items[:0]
	}
	return v, true
}

// Traced wraps a payload with the per-request trace ID that produced it
// (internal/rtrace). The wrapper exists so the ID can cross process
// boundaries: the binary codec hoists it into the frame header (frame
// version 2, DESIGN §3.6) instead of encoding the wrapper itself.
// In-process consumers (the raft node loop, the mux) unwrap it with
// TraceOf. ID 0 never wraps.
type Traced struct {
	ID      uint64
	Payload any
}

// WithTraceID wraps payload for the wire when id is non-zero; the
// unsampled path returns payload untouched, allocating nothing.
func WithTraceID(id uint64, payload any) any {
	if id == 0 {
		return payload
	}
	return Traced{ID: id, Payload: payload}
}

// TraceOf unwraps one Traced layer, returning the trace ID (0 if none)
// and the inner payload.
func TraceOf(payload any) (uint64, any) {
	if t, ok := payload.(Traced); ok {
		return t.ID, t.Payload
	}
	return 0, payload
}

// Sentinel errors shared by all Endpoint implementations.
var (
	// ErrCrashed is returned once the local processor has been crashed by
	// fault injection; all subsequent operations fail with it.
	ErrCrashed = errors.New("msgnet: endpoint crashed")
	// ErrClosed is returned after the network has been shut down.
	ErrClosed = errors.New("msgnet: network closed")
)
