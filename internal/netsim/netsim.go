// Package netsim simulates an asynchronous message-passing network in
// memory. It implements msgnet.Endpoint for each of n processors and puts
// the adversary in charge of delivery: messages are handed to receivers in
// an order chosen by a seeded RNG, may be dropped or duplicated by
// configured fault policies, and processors can be crashed — including in
// the middle of a broadcast, the classic adversarial case for Ben-Or.
//
// The simulation is property-oriented rather than time-oriented: there is
// no virtual clock here (Raft's timers use internal/sim.Clock); asynchrony
// is modelled purely as unbounded reordering, which is all the paper's
// asynchronous algorithms observe.
//
// # Sharding and determinism
//
// The hot path is sharded so concurrent processors do not serialize on a
// single network lock. Each receiver owns an inbox (msgnet.Inbox: its own
// mutex, and one queue and notify channel per lane), and randomness is
// split off the root seed into private streams via sim.RNG.Split: stream
// ("send", i) drives processor i's broadcast permutations and drop/dup
// coin flips, stream ("recv", i) the adversarial pop order of i's own
// lane, and each of i's mux channels has a stream of its own. Because
// every draw a lane observes comes from its own stream, the delivery
// schedule seen by a fixed sequence of operations is a pure function of
// the root seed — replayable bit for bit — while operations of different
// processors proceed in parallel without contending. Cross-cutting
// control state (partitions, crash flags, close) sits behind a
// read-mostly sync.RWMutex that sends take only for reading; send quotas
// decrement via atomics.
package netsim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/sim"
	"ooc/internal/trace"
)

// Option configures a Network.
type Option func(*Network)

// WithSeed seeds the root RNG from which the per-processor delivery and
// fault streams are split. The default is a fixed seed, so unconfigured
// networks are still deterministic.
func WithSeed(seed uint64) Option {
	return func(n *Network) { n.rng = sim.NewRNG(seed) }
}

// WithRecorder attaches a trace recorder; nil is legal and discards.
func WithRecorder(rec *trace.Recorder) Option {
	return func(n *Network) { n.rec = rec }
}

// WithMetrics attaches a live metrics registry: sends, delivers, drops,
// and payload bytes become counters, and each receiver's mailbox depth a
// gauge. nil is legal and leaves the network uninstrumented (the hot
// path then pays only nil checks); the nil form is a shared no-op so
// uninstrumented callers don't allocate a closure per run.
func WithMetrics(reg *metrics.Registry) Option {
	if reg == nil {
		return noopNetOption
	}
	return func(n *Network) { n.metReg = reg }
}

var noopNetOption = func(*Network) {}

// netMetrics holds the network's pre-registered instruments; the hot
// path writes through these pointers and never touches the registry.
type netMetrics struct {
	sends    *metrics.Counter
	delivers *metrics.Counter
	drops    *metrics.Counter
	bytes    *metrics.Counter
	depth    []*metrics.Gauge // per-receiver mailbox depth
}

func newNetMetrics(reg *metrics.Registry, n int) *netMetrics {
	if reg == nil {
		return nil
	}
	m := &netMetrics{
		sends:    reg.Counter("netsim_sends_total"),
		delivers: reg.Counter("netsim_delivers_total"),
		drops:    reg.Counter("netsim_drops_total"),
		bytes:    reg.Counter("netsim_sent_bytes_total"),
		depth:    make([]*metrics.Gauge, n),
	}
	for i := 0; i < n; i++ {
		m.depth[i] = reg.Gauge(metrics.Label("netsim_mailbox_depth", "node", fmt.Sprint(i)))
	}
	return m
}

// WithDropRate makes the network lose each message independently with
// probability p in [0, 1].
func WithDropRate(p float64) Option {
	return func(n *Network) { n.dropRate = p }
}

// WithDupRate makes the network duplicate each delivered message
// independently with probability p in [0, 1].
func WithDupRate(p float64) Option {
	return func(n *Network) { n.dupRate = p }
}

// WithTamper installs a Byzantine message hook: every sent message passes
// through fn, which may rewrite it, multiply it, or return nil to eat it.
// The hook runs under the network's control lock and must not call back
// in.
func WithTamper(fn func(msgnet.Message) []msgnet.Message) Option {
	return func(n *Network) { n.tamper = fn }
}

// WithFIFO disables adversarial reordering: each receiver sees messages in
// arrival order. Useful for isolating reordering effects in tests.
func WithFIFO() Option {
	return func(n *Network) { n.fifo = true }
}

// Network is the simulated network fabric. Create one with New, then hand
// each processor its Endpoint via Node.
type Network struct {
	n        int
	rng      *sim.RNG
	rec      *trace.Recorder
	metReg   *metrics.Registry
	met      *netMetrics
	dropRate float64
	dupRate  float64
	fifo     bool
	tamper   func(msgnet.Message) []msgnet.Message

	// Per-processor shards and streams; the slices are immutable after
	// New, so the hot path indexes them without any lock.
	boxes     []*msgnet.Inbox
	sendRNG   []*sim.RNG // streams Split("send", i): broadcast order, drop/dup coins
	sendQuota []atomic.Int64

	// Control plane: read-mostly cross-cutting state. Sends and receives
	// take the read side; Crash/Restart/Partition/Heal/Close take the
	// write side.
	mu      sync.RWMutex
	closed  bool
	crashed []bool
	blocked [][]bool // blocked[i][j]: messages i -> j are cut (partition)
}

// New creates a simulated network of n processors.
func New(n int, opts ...Option) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: invalid processor count %d", n))
	}
	nw := &Network{
		n:         n,
		rng:       sim.NewRNG(1),
		crashed:   make([]bool, n),
		sendQuota: make([]atomic.Int64, n),
		boxes:     make([]*msgnet.Inbox, n),
		blocked:   make([][]bool, n),
	}
	for _, opt := range opts {
		opt(nw)
	}
	nw.met = newNetMetrics(nw.metReg, n)
	nw.sendRNG = make([]*sim.RNG, n)
	for i := 0; i < n; i++ {
		var recv *sim.RNG // stream Split("recv", i): pop order
		if !nw.fifo {
			recv = nw.rng.Split("recv", uint64(i))
		}
		nw.boxes[i] = msgnet.NewInbox(recv, nw.took)
		nw.sendQuota[i].Store(-1)
		nw.blocked[i] = make([]bool, n)
		nw.sendRNG[i] = nw.rng.Split("send", uint64(i))
	}
	return nw
}

// took accounts a message its receiver's consumer took, on any lane.
func (nw *Network) took(m msgnet.Message) {
	if met := nw.met; met != nil {
		met.delivers.Inc(m.To)
		met.depth[m.To].Add(-1)
	}
	if nw.rec != nil {
		nw.rec.Deliver(m.To, m.From, 0, m.Payload)
	}
}

// N reports the number of processors.
func (nw *Network) N() int { return nw.n }

// Node returns processor id's endpoint.
func (nw *Network) Node(id int) msgnet.Endpoint {
	if id < 0 || id >= nw.n {
		panic(fmt.Sprintf("netsim: node id %d out of range [0,%d)", id, nw.n))
	}
	return &endpoint{nw: nw, id: id}
}

// Crash marks processor id as crashed: its sends vanish, and any blocked
// or future Recv returns msgnet.ErrCrashed.
func (nw *Network) Crash(id int) {
	nw.mu.Lock()
	nw.crashed[id] = true
	nw.boxes[id].Fail(msgnet.ErrCrashed)
	nw.mu.Unlock()
	nw.rec.Crash(id)
}

// CrashAfterSends lets processor id successfully send k more individual
// messages, then crashes it. Because Broadcast transmits to recipients in
// a random permutation, this injects the canonical "crash mid-broadcast"
// adversary: an arbitrary subset of recipients sees the final broadcast.
func (nw *Network) CrashAfterSends(id, k int) {
	nw.sendQuota[id].Store(int64(k))
}

// Restart revives a crashed processor: its inbox starts empty (whatever
// was in flight while it was down is lost), its send quota is unlimited,
// and Recv works again. A restarted processor is expected to restore its
// own durable state (e.g. raft.Storage) before rejoining the protocol.
func (nw *Network) Restart(id int) {
	nw.mu.Lock()
	nw.crashed[id] = false
	nw.sendQuota[id].Store(-1)
	nw.boxes[id].Reset()
	if nw.closed {
		nw.boxes[id].Fail(msgnet.ErrClosed)
	}
	nw.mu.Unlock()
	if nw.met != nil {
		nw.met.depth[id].Set(0)
	}
	nw.rec.Note(id, "restarted")
}

// Crashed reports whether id has crashed.
func (nw *Network) Crashed(id int) bool {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.crashed[id]
}

// Partition cuts the network into the given groups: messages between
// different groups are dropped until Heal. Processors absent from every
// group are isolated entirely.
func (nw *Network) Partition(groups ...[]int) {
	group := make([]int, nw.n)
	for i := range group {
		group[i] = -1 - i // unique negative: isolated
	}
	for g, members := range groups {
		for _, id := range members {
			group[id] = g
		}
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for i := 0; i < nw.n; i++ {
		for j := 0; j < nw.n; j++ {
			nw.blocked[i][j] = group[i] != group[j]
		}
	}
}

// Heal removes all partition cuts.
func (nw *Network) Heal() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for i := range nw.blocked {
		for j := range nw.blocked[i] {
			nw.blocked[i][j] = false
		}
	}
}

// Close shuts the network down; all blocked Recvs return msgnet.ErrClosed.
func (nw *Network) Close() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.closed = true
	for _, b := range nw.boxes {
		b.Fail(msgnet.ErrClosed)
	}
}

// send routes one message, applying crash quota, partition, tampering,
// drop and duplication policies. It reports an error only for local
// conditions (sender crashed / network closed); remote loss is silent, as
// on a real asynchronous network. size is the precomputed wire-size proxy
// (0 when no recorder is attached), so a broadcast sizes its payload once
// rather than once per recipient.
func (nw *Network) send(from, to int, payload any, size int) error {
	nw.mu.RLock()
	if nw.closed {
		nw.mu.RUnlock()
		return msgnet.ErrClosed
	}
	if nw.crashed[from] {
		nw.mu.RUnlock()
		return msgnet.ErrCrashed
	}
	for {
		q := nw.sendQuota[from].Load()
		if q < 0 {
			break // unlimited
		}
		if q == 0 {
			nw.mu.RUnlock()
			nw.Crash(from)
			return msgnet.ErrCrashed
		}
		if nw.sendQuota[from].CompareAndSwap(q, q-1) {
			break
		}
	}

	srng := nw.sendRNG[from]
	if nw.tamper == nil && nw.dupRate == 0 {
		// Fast path: one message, at most one copy, no intermediate
		// slices.
		dropped := nw.blocked[from][to] || nw.crashed[to]
		if !dropped && nw.dropRate > 0 && srng.Float64() < nw.dropRate {
			dropped = true
		}
		if !dropped {
			dropped = !nw.boxes[to].Push(msgnet.Message{From: from, To: to, Payload: payload})
		}
		nw.mu.RUnlock()
		if m := nw.met; m != nil {
			m.sends.Inc(from)
			m.bytes.Add(from, int64(size))
			if dropped {
				m.drops.Inc(to)
			} else {
				m.depth[to].Add(1)
			}
		}
		if nw.rec != nil {
			nw.rec.Send(from, to, 0, size, payload)
			if dropped {
				nw.rec.Drop(to, from, 0, payload)
			}
		}
		return nil
	}

	msgs := []msgnet.Message{{From: from, To: to, Payload: payload}}
	if nw.tamper != nil {
		msgs = nw.tamper(msgs[0])
	}
	var delivered []int
	var drops []msgnet.Message
	for _, m := range msgs {
		switch {
		case nw.blocked[m.From][m.To], nw.crashed[m.To]:
			// Partitioned or dead receiver: the message is lost. A crashed
			// receiver never reads its mailbox again, so this is
			// observationally a drop.
			drops = append(drops, m)
		case nw.dropRate > 0 && srng.Float64() < nw.dropRate:
			drops = append(drops, m)
		default:
			copies := 1
			if nw.dupRate > 0 && srng.Float64() < nw.dupRate {
				copies = 2
			}
			for c := 0; c < copies; c++ {
				if nw.boxes[m.To].Push(m) {
					delivered = append(delivered, m.To)
				} else {
					drops = append(drops, m)
				}
			}
		}
	}
	nw.mu.RUnlock()

	if m := nw.met; m != nil {
		m.sends.Inc(from)
		m.bytes.Add(from, int64(size))
		m.drops.Add(to, int64(len(drops)))
		for _, d := range delivered {
			m.depth[d].Add(1)
		}
	}
	if nw.rec != nil {
		nw.rec.Send(from, to, 0, size, payload)
		for _, d := range drops {
			nw.rec.Drop(d.To, d.From, 0, d.Payload)
		}
	}
	return nil
}

// approxSize is a rough wire-size proxy used only for accounting (the TCP
// transport measures real encoded sizes). It is a cheap type switch over
// the payload kinds the protocols actually send, falling back to the
// type's shallow size; crucially it never formats the payload.
func approxSize(payload any) int {
	switch v := payload.(type) {
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, uint, int64, uint64, uintptr, float64:
		return 8
	case string:
		return len(v)
	case []byte:
		return len(v)
	case msgnet.Tagged:
		// Mux traffic: the wrapper costs its channel tag plus whatever
		// it wraps, so per-channel accounting sees through the envelope.
		return len(v.Channel) + approxSize(v.Payload)
	default:
		if t := reflect.TypeOf(payload); t != nil {
			return int(t.Size())
		}
		return 0
	}
}

type endpoint struct {
	nw *Network
	id int
}

var _ msgnet.Endpoint = (*endpoint)(nil)

func (e *endpoint) ID() int { return e.id }
func (e *endpoint) N() int  { return e.nw.n }

func (e *endpoint) Send(to int, payload any) error {
	if to < 0 || to >= e.nw.n {
		return fmt.Errorf("netsim: send to invalid node %d", to)
	}
	size := 0
	if e.nw.rec != nil || e.nw.met != nil {
		size = approxSize(payload)
	}
	return e.nw.send(e.id, to, payload, size)
}

// Broadcast sends to every processor in a random permutation so that a
// send-quota crash cuts the broadcast at an adversarially chosen subset.
// The permutation is drawn from the sender's private stream, and the
// payload is sized once for the whole broadcast, not once per recipient.
func (e *endpoint) Broadcast(payload any) error {
	size := 0
	if e.nw.rec != nil || e.nw.met != nil {
		size = approxSize(payload)
	}
	order := e.nw.sendRNG[e.id].Perm(e.nw.n)
	for _, to := range order {
		if err := e.nw.send(e.id, to, payload, size); err != nil {
			return fmt.Errorf("broadcast from %d interrupted: %w", e.id, err)
		}
	}
	return nil
}

func (e *endpoint) Recv(ctx context.Context) (msgnet.Message, error) {
	return msgnet.Recv(ctx, e)
}

// Ready is the own lane's notify channel. A crash-recovered successor on
// the same id shares it with its predecessor, which is why consumers
// check their context before every take (msgnet.Recv does).
func (e *endpoint) Ready() <-chan struct{} { return e.nw.boxes[e.id].Ready() }

func (e *endpoint) TryRecv() (msgnet.Message, bool, error) { return e.nw.boxes[e.id].TryRecv() }

func (e *endpoint) Inbox() *msgnet.Inbox { return e.nw.boxes[e.id] }
