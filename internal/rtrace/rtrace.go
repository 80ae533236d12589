// Package rtrace is per-request causal tracing for the replicated KV
// stack. Where internal/trace records protocol rounds in the simulator,
// rtrace follows one client operation through the real request path:
// propose → leader queue → batch coalesce → group-commit fsync →
// AppendEntries fan-out → quorum ack → commit → apply → reply, and the
// ReadIndex/lease read equivalents.
//
// The design splits the cost three ways:
//
//   - Sampling happens once, at Client.Put/Get. An unsampled request
//     carries trace ID 0 and every downstream call is a nil-or-zero
//     check — no clock reads, no context allocation, no map traffic.
//   - A sampled request's trace ID rides in the context
//     (WithTrace/FromContext) inside one process and in the codec frame
//     header (frame version 2, DESIGN §3.5.2) across the wire.
//   - Phase attribution is interval-based: the single-goroutine raft
//     loop calls ObservePhase with explicit start/end stamps it already
//     holds, so the tracer never injects synchronization into the loop;
//     span assembly locks only the (sampled, rare) span record.
//
// Completed spans land in a bounded ring consumable by cmd/ooctrace's
// -request view (WriteJSON/ReadSpans) and fold into per-phase latency
// histograms in the metrics registry, giving the queue-vs-fsync-vs-
// network-vs-apply breakdown the "Paxos vs Raft" comparison measures.
//
// A nil *Tracer discards everything, mirroring the nil *trace.Recorder
// and nil *metrics.Registry conventions.
package rtrace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ooc/internal/metrics"
)

// ID is a per-request trace identifier. ID 0 means "not sampled" and is
// never assigned to a real trace; every hot-path hook exits on it first.
type ID uint64

// Phase labels one interval of a request's life. The four phases are the
// latency-attribution buckets the acceptance criteria sum against the
// end-to-end time. Under the sync write path they are disjoint by
// construction (each is measured between distinct points of the single
// leader loop); under the pipelined path (PR9) fsync and network are
// stamped independently — the persist worker stamps fsync around the
// actual AppendBatch while the main loop stamps network append→commit —
// so the two intervals OVERLAP when the pipeline is doing its job, and
// AttributedTotal may exceed Elapsed. Renderers must treat phases as
// intervals on a shared timeline, not as a sequential breakdown.
type Phase uint8

const (
	// PhaseQueue: client enqueue → the leader loop drains the proposal
	// (or read) into a batch.
	PhaseQueue Phase = iota
	// PhaseFsync: the group-commit Storage.AppendBatch covering the
	// request's entries, measured around the actual persist call.
	PhaseFsync
	// PhaseNetwork: replication flush → quorum ack advances commitIndex
	// past the request's entry (or, for reads, the ReadIndex
	// confirmation round).
	PhaseNetwork
	// PhaseApply: commit → the state machine finished applying the
	// request's entry (or the read was served from the state machine).
	PhaseApply

	numPhases
)

// String reports the phase's histogram label.
func (p Phase) String() string {
	switch p {
	case PhaseQueue:
		return "queue"
	case PhaseFsync:
		return "fsync"
	case PhaseNetwork:
		return "network"
	case PhaseApply:
		return "apply"
	}
	return "unknown"
}

// MarshalJSON renders the phase by name so span dumps are readable and
// diffable in CI.
func (p Phase) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON accepts a phase name (or a legacy numeric value).
func (p *Phase) UnmarshalJSON(b []byte) error {
	s := string(b)
	switch s {
	case `"queue"`:
		*p = PhaseQueue
	case `"fsync"`:
		*p = PhaseFsync
	case `"network"`:
		*p = PhaseNetwork
	case `"apply"`:
		*p = PhaseApply
	default:
		var n uint8
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
			return fmt.Errorf("rtrace: unknown phase %s", s)
		}
		*p = Phase(n)
	}
	return nil
}

// PhaseInterval is one attributed slice of a span's timeline.
type PhaseInterval struct {
	Phase Phase     `json:"phase"`
	Node  int       `json:"node"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Width, on a fsync interval, is how many groups' durability
	// requests shared the device barrier that covered it (PR10 sync
	// coalescing): the interval is the *covering barrier*, so a width
	// above 1 means other groups' writes rode the same flush and the
	// request did not pay the whole interval alone — the shared-barrier
	// analogue of the pipelined fsync/network overlap. 0 or 1 means the
	// barrier covered this group alone (or the field predates coalescing).
	Width int `json:"width,omitempty"`
}

// Duration is the interval's length.
func (pi PhaseInterval) Duration() time.Duration { return pi.End.Sub(pi.Start) }

// span is one in-flight request's record. Only sampled requests allocate
// one, so a plain mutex is fine: the contenders are the client goroutine
// (Begin/End) and the single raft loop (ObservePhase), a few times per
// sampled request.
type span struct {
	mu     sync.Mutex
	id     ID
	op     string
	key    string
	origin int // node/client that began the span; -1 for remote stubs
	start  time.Time
	end    time.Time
	err    bool
	remote bool // created by ObservePhase for an ID begun elsewhere
	phases []PhaseInterval
}

// Span is a completed (or snapshotted) request timeline, the unit
// ooctrace -request renders and CI diffs as JSON.
type Span struct {
	ID     ID              `json:"id"`
	Op     string          `json:"op"`
	Key    string          `json:"key,omitempty"`
	Origin int             `json:"origin"`
	Start  time.Time       `json:"start"`
	End    time.Time       `json:"end"`
	Err    bool            `json:"err,omitempty"`
	Remote bool            `json:"remote,omitempty"`
	Phases []PhaseInterval `json:"phases"`
}

// Elapsed is the span's end-to-end latency.
func (s Span) Elapsed() time.Duration { return s.End.Sub(s.Start) }

// PhaseTotal sums the span's intervals for one phase.
func (s Span) PhaseTotal(p Phase) time.Duration {
	var total time.Duration
	for _, pi := range s.Phases {
		if pi.Phase == p {
			total += pi.Duration()
		}
	}
	return total
}

// AttributedTotal sums every phase interval — the quantity the
// acceptance criteria compare against Elapsed.
func (s Span) AttributedTotal() time.Duration {
	var total time.Duration
	for _, pi := range s.Phases {
		total += pi.Duration()
	}
	return total
}

// Options configures a Tracer.
type Options struct {
	// Sample is the per-request sampling probability in [0, 1]. 0 never
	// samples (every Begin returns ID 0), 1 samples everything.
	Sample float64
	// Seed seeds the sampling/ID generator; 0 picks a fixed default so
	// tests are deterministic.
	Seed uint64
	// Registry receives the per-phase and end-to-end latency
	// histograms; nil records no metrics.
	Registry *metrics.Registry
	// Capacity bounds both the in-flight span table and the completed
	// ring (default 4096). Overflow evicts oldest and counts drops.
	Capacity int
}

// Tracer samples requests, assembles spans, and folds phase latencies
// into metrics. One Tracer serves a whole in-process cluster (client and
// nodes share it, which is how client-side Begin/End and leader-side
// ObservePhase meet); across real processes each process has its own and
// the wire carries only the ID.
type Tracer struct {
	threshold uint64 // sample iff next rng draw < threshold
	rng       atomic.Uint64
	base      ID // random per-Tracer offset so IDs are unique-ish across processes
	next      atomic.Uint64

	phaseHist [numPhases]*metrics.Histogram
	e2eHist   *metrics.Histogram
	started   *metrics.Counter
	dropped   *metrics.Counter

	mu       sync.Mutex
	active   map[ID]*span
	activeQ  []ID // insertion order for eviction
	done     []Span
	doneNext int
	doneFull bool
	capacity int
}

// New builds a Tracer. A Sample of 0 still returns a usable Tracer (for
// remote-phase assembly and explicit Begin-free use); pass nil where
// tracing is wholly disabled.
func New(o Options) *Tracer {
	cap := o.Capacity
	if cap <= 0 {
		cap = 4096
	}
	seed := o.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	t := &Tracer{
		capacity: cap,
		active:   make(map[ID]*span),
		done:     make([]Span, 0, cap),
	}
	switch {
	case o.Sample >= 1:
		t.threshold = ^uint64(0)
	case o.Sample > 0:
		t.threshold = uint64(o.Sample * float64(1<<63) * 2)
	}
	t.rng.Store(seed)
	t.base = ID(splitmix64(&seed))
	if o.Registry != nil {
		for p := Phase(0); p < numPhases; p++ {
			t.phaseHist[p] = o.Registry.Histogram(
				metrics.Label("rtrace_phase_latency", "phase", p.String()), nil)
		}
		t.e2eHist = o.Registry.Histogram("rtrace_request_latency", nil)
		t.started = o.Registry.Counter("rtrace_spans_started_total")
		t.dropped = o.Registry.Counter("rtrace_spans_dropped_total")
	}
	return t
}

// splitmix64 advances *s and returns the next value of the splitmix64
// stream — the same generator sim.RNG seeds with.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw is a lock-free splitmix64 step shared by all samplers. A lost CAS
// just means another goroutine consumed that draw; retrying keeps the
// stream collision-free without a lock.
func (t *Tracer) draw() uint64 {
	for {
		old := t.rng.Load()
		s := old
		v := splitmix64(&s)
		if t.rng.CompareAndSwap(old, s) {
			return v
		}
	}
}

// Begin samples one request. It returns ID 0 (and false) when the
// request is not sampled — the caller threads the ID regardless, and
// every downstream hook no-ops on 0. On a sampled request it allocates
// the span record, stamps the start time, and returns a non-zero ID.
func (t *Tracer) Begin(node int, op, key string) (ID, bool) {
	if t == nil || t.threshold == 0 {
		return 0, false
	}
	if t.threshold != ^uint64(0) && t.draw() >= t.threshold {
		return 0, false
	}
	id := t.base + ID(t.next.Add(1))
	if id == 0 {
		id = t.base + ID(t.next.Add(1))
	}
	sp := &span{id: id, op: op, key: key, origin: node, start: time.Now()}
	t.insert(id, sp)
	t.started.Inc(node)
	return id, true
}

// insert files a span under its ID, evicting the oldest in-flight span
// if the table is full (a request that never completed — leader crash,
// dropped reply). Evicted spans are finalized as-is so their phases are
// not lost.
func (t *Tracer) insert(id ID, sp *span) {
	t.mu.Lock()
	if len(t.activeQ) >= t.capacity {
		oldID := t.activeQ[0]
		t.activeQ = t.activeQ[1:]
		if old := t.active[oldID]; old != nil {
			delete(t.active, oldID)
			t.finishLocked(old, time.Time{}, true)
			t.dropped.Inc(old.origin)
		}
	}
	t.active[id] = sp
	t.activeQ = append(t.activeQ, id)
	t.mu.Unlock()
}

// lookup finds the span for id, creating a remote stub when this Tracer
// never saw Begin (the ID arrived over the wire from another process).
func (t *Tracer) lookup(id ID, node int) *span {
	t.mu.Lock()
	sp := t.active[id]
	t.mu.Unlock()
	if sp != nil {
		return sp
	}
	sp = &span{id: id, origin: -1, remote: true, start: time.Now(), op: "remote"}
	if node >= 0 {
		sp.origin = node
	}
	t.insert(id, sp)
	return sp
}

// ObservePhase attributes [start, end) of trace id to one phase,
// executed on node. ID 0, a nil tracer, and zero times all discard, so
// call sites stay unconditional.
func (t *Tracer) ObservePhase(id ID, p Phase, node int, start, end time.Time) {
	t.observe(id, p, node, start, end, 0)
}

// ObserveFsync attributes a fsync interval that also records the width
// of the device barrier that covered it — how many groups' requests
// shared the flush (see PhaseInterval.Width). Width values below 2 are
// recorded as 0 (a round of one), keeping pre-coalescing span JSON
// byte-identical.
func (t *Tracer) ObserveFsync(id ID, node int, start, end time.Time, width int) {
	if width < 2 {
		width = 0
	}
	t.observe(id, PhaseFsync, node, start, end, width)
}

func (t *Tracer) observe(id ID, p Phase, node int, start, end time.Time, width int) {
	if t == nil || id == 0 || start.IsZero() || end.IsZero() || p >= numPhases {
		return
	}
	sp := t.lookup(id, node)
	sp.mu.Lock()
	sp.phases = append(sp.phases, PhaseInterval{Phase: p, Node: node, Start: start, End: end, Width: width})
	sp.mu.Unlock()
	t.phaseHist[p].Observe(node, end.Sub(start))
}

// Now reads the clock only for sampled requests: the disabled path pays
// a nil/zero check, not a clock read. Use for phase start stamps.
func (t *Tracer) Now(id ID) time.Time {
	if t == nil || id == 0 {
		return time.Time{}
	}
	return time.Now()
}

// End completes the span: stamps the end, observes end-to-end latency,
// and moves the record to the completed ring.
func (t *Tracer) End(id ID, opErr bool) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	sp := t.active[id]
	if sp == nil {
		t.mu.Unlock()
		return
	}
	delete(t.active, id)
	for i, qid := range t.activeQ {
		if qid == id {
			t.activeQ = append(t.activeQ[:i], t.activeQ[i+1:]...)
			break
		}
	}
	sp.err = opErr
	t.finishLocked(sp, time.Now(), false)
	t.mu.Unlock()
}

// finishLocked snapshots sp into the completed ring. Caller holds t.mu.
func (t *Tracer) finishLocked(sp *span, end time.Time, evicted bool) {
	sp.mu.Lock()
	if end.IsZero() {
		end = sp.start // evicted with no completion: zero elapsed
	}
	sp.end = end
	snap := Span{
		ID: sp.id, Op: sp.op, Key: sp.key, Origin: sp.origin,
		Start: sp.start, End: sp.end, Err: sp.err || evicted, Remote: sp.remote,
		Phases: append([]PhaseInterval(nil), sp.phases...),
	}
	sp.mu.Unlock()
	if !evicted && !sp.remote {
		t.e2eHist.Observe(sp.origin, snap.Elapsed())
	}
	if len(t.done) < t.capacity {
		t.done = append(t.done, snap)
	} else {
		t.done[t.doneNext] = snap
		t.doneNext = (t.doneNext + 1) % t.capacity
		t.doneFull = true
	}
}

// Spans returns the completed spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.done))
	if t.doneFull {
		out = append(out, t.done[t.doneNext:]...)
		out = append(out, t.done[:t.doneNext]...)
	} else {
		out = append(out, t.done...)
	}
	return out
}

// Span fetches one completed span by ID.
func (t *Tracer) Span(id ID) (Span, bool) {
	for _, s := range t.Spans() {
		if s.ID == id {
			return s, true
		}
	}
	return Span{}, false
}

// ctxKey is the context key for the trace ID.
type ctxKey struct{}

// WithTrace attaches a trace ID to ctx. ID 0 returns ctx unchanged, so
// the unsampled path allocates nothing.
func WithTrace(ctx context.Context, id ID) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// FromContext extracts the trace ID, 0 if absent.
func FromContext(ctx context.Context) ID {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(ctxKey{}).(ID); ok {
		return id
	}
	return 0
}
