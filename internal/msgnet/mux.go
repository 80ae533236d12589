package msgnet

import (
	"context"
	"fmt"

	"ooc/internal/metrics"
)

// Mux multiplexes several independent protocol instances over one
// Endpoint: each instance gets its own channel-tagged sub-endpoint, and
// the parent's Inbox routes inbound messages by tag in the goroutine that
// delivers them. This is how, for example, several consensus instances
// share one TCP transport, or a composite object runs two
// message-passing sub-objects over one simulated node.
//
// Channels are matched by name across processors. Traffic arriving for a
// channel that has not been created yet is buffered and handed over on
// creation, so instances may start at different times on different
// processors. The buffer is bounded per channel (DefaultBacklogLimit):
// past the cap, the newest message for that channel is dropped and
// counted, so a channel nobody ever creates — a misrouted tag, or a
// shard group that failed to boot — cannot grow an unbounded queue.
type Mux struct {
	parent  Endpoint
	in      *Inbox
	dropped *metrics.Counter
	onDrop  func(channel string, from int)
}

// MuxOption configures a Mux.
type MuxOption func(*Mux)

// DefaultBacklogLimit is the per-channel cap on messages buffered for a
// channel that has not been created yet. Boot skew between processors
// spans at most a few protocol rounds of traffic; 4096 covers that with
// a wide margin while bounding a never-created channel's memory.
const DefaultBacklogLimit = 4096

// WithMuxMetrics counts backlog drops in reg as
// mux_backlog_dropped_total, attributed to the parent endpoint's id. A
// nil registry keeps the no-op counter.
func WithMuxMetrics(reg *metrics.Registry) MuxOption {
	return func(m *Mux) {
		if reg != nil {
			m.dropped = reg.Counter("mux_backlog_dropped_total")
		}
	}
}

// WithMuxDropHook installs a callback fired (off the inbox lock, on the
// delivering goroutine) each time the backlog cap drops a message, with
// the channel it was tagged for and the sender. The counter says drops
// happened; the hook says which channel and who — it is how the flight
// recorder makes drops attributable after the fact.
func WithMuxDropHook(fn func(channel string, from int)) MuxOption {
	return func(m *Mux) { m.onDrop = fn }
}

// Tagged is the wire wrapper. The binary codec (internal/codec) encodes
// it natively, recursing on the payload.
type Tagged struct {
	Channel string
	Payload any
}

// ChannelOf reports the mux channel name a payload is tagged with. Trace
// recorders sitting under the mux (netsim, transport) capture the wire
// wrapper verbatim, so inspectors use this to group recorded traffic by
// channel without knowing the wrapper type.
func ChannelOf(payload any) (string, bool) {
	t, ok := payload.(Tagged)
	return t.Channel, ok
}

// NewMux attaches a mux to parent's inbox; it starts no goroutine. When
// ctx is done, or the parent endpoint dies, every sub-endpoint's Recv
// fails with the terminating error — give the Mux the same lifetime as
// the node it serves. An endpoint takes one mux in its lifetime.
func NewMux(ctx context.Context, parent Endpoint, opts ...MuxOption) *Mux {
	m := &Mux{parent: parent, in: parent.Inbox()}
	for _, opt := range opts {
		opt(m)
	}
	m.in.attach(m)
	context.AfterFunc(ctx, func() { m.in.detach(ctx.Err()) })
	return m
}

// Channel returns the sub-endpoint for the named channel, creating it on
// first use. Calling Channel twice with one name returns the same
// endpoint.
func (m *Mux) Channel(name string) Endpoint { return m.in.channel(name) }

type subEndpoint struct {
	mux     *Mux
	channel string
	lane    // guarded by mux.in.mu
}

var _ Endpoint = (*subEndpoint)(nil)

// ID implements Endpoint.
func (s *subEndpoint) ID() int { return s.mux.parent.ID() }

// N implements Endpoint.
func (s *subEndpoint) N() int { return s.mux.parent.N() }

// Send implements Endpoint.
func (s *subEndpoint) Send(to int, payload any) error {
	if err := s.mux.parent.Send(to, Tagged{Channel: s.channel, Payload: payload}); err != nil {
		return fmt.Errorf("mux channel %q: %w", s.channel, err)
	}
	return nil
}

// Broadcast implements Endpoint.
func (s *subEndpoint) Broadcast(payload any) error {
	if err := s.mux.parent.Broadcast(Tagged{Channel: s.channel, Payload: payload}); err != nil {
		return fmt.Errorf("mux channel %q: %w", s.channel, err)
	}
	return nil
}

// Recv implements Endpoint.
func (s *subEndpoint) Recv(ctx context.Context) (Message, error) { return Recv(ctx, s) }

// Ready implements Endpoint.
func (s *subEndpoint) Ready() <-chan struct{} { return s.notify }

// Inbox implements Endpoint: a sub-endpoint has none.
func (s *subEndpoint) Inbox() *Inbox { return nil }

// TryRecv implements Endpoint. It hands out the payload inside the
// Tagged wrapper the lane keeps.
func (s *subEndpoint) TryRecv() (Message, bool, error) {
	m, ok, err := s.mux.in.take(&s.lane)
	if err != nil {
		return Message{}, false, fmt.Errorf("mux channel %q: %w", s.channel, err)
	}
	if ok {
		m.Payload = m.Payload.(Tagged).Payload
	}
	return m, ok, nil
}
