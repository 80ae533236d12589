// Package metrics is a zero-dependency, allocation-free metrics layer
// for the consensus stack: counters, gauges, and fixed-bucket latency
// histograms behind a Registry that serializes to Prometheus text and
// JSON (see expose.go).
//
// The hot-path design follows the sharded trace.Recorder (DESIGN.md
// §3.6.3): a Counter or Histogram is an
// array of cache-line-padded atomic cells, and callers on the sharded
// simulation hot path pass their processor id as the shard hint, so
// concurrent processors never contend on one cache line. Reads fold the
// shards; writes are a single uncontended atomic add.
//
// Every type tolerates a nil receiver by discarding, mirroring the nil
// *trace.Recorder convention, so instrumented code records
// unconditionally and pays only a predictable nil check plus (for
// histograms) one clock read when no sink is attached.
//
// Cardinality rules: metric names are registered once, on the cold path,
// and labels are baked into the name string at registration time with
// Label. Instrumented code holds the returned *Counter/*Gauge/*Histogram
// pointer; it never formats label strings per event. Keep label values
// from small closed sets (object names, the three confidences, node ids
// of a fixed cluster) — never values, keys, or payloads.
package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// shards is the number of independent cells a sharded metric spreads
// writes over. A power of two keeps the shard index a mask; 16 matches
// trace.Recorder and covers the simulated cluster sizes the experiments
// run.
const shards = 16

// shardFor maps a shard hint (a node id, including the -1 "no node"
// convention) onto a cell index.
func shardFor(hint int) int {
	return int(uint(hint) & (shards - 1))
}

// cell is one padded atomic counter. The trailing pad keeps neighbouring
// cells on distinct cache lines so concurrent writers do not false-share.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value
// is ready to use; a nil *Counter discards.
type Counter struct {
	cells [shards]cell
}

// Inc adds one, attributing the write to the given shard hint.
func (c *Counter) Inc(hint int) { c.Add(hint, 1) }

// Add adds n, attributing the write to the given shard hint.
func (c *Counter) Add(hint int, n int64) {
	if c == nil {
		return
	}
	c.cells[shardFor(hint)].n.Add(n)
}

// Value folds the shards into the counter's current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	total := int64(0)
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is a last-value-wins instantaneous metric (mailbox depth, queue
// length). Unlike counters, gauges are written by one owner at a time in
// practice, so a single atomic suffices. A nil *Gauge discards.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bounds used when none are
// given: powers of four from 1µs to ~4.3s, which brackets everything
// from a simulated in-memory round to a stalled wall-clock election.
var DefaultLatencyBuckets = []time.Duration{
	1 * time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	1024 * time.Microsecond,
	4096 * time.Microsecond,
	16384 * time.Microsecond,
	65536 * time.Microsecond,
	262144 * time.Microsecond,
	1048576 * time.Microsecond,
	4194304 * time.Microsecond,
}

// histCell is one shard of a histogram: per-bucket counts plus sum and
// count, padded like cell. Buckets beyond len(bounds) are unused.
type histCell struct {
	counts   [len16]atomic.Int64 // counts[i]: observations ≤ bounds[i]; last = +Inf
	sum      atomic.Int64        // nanoseconds
	observed atomic.Int64
	_        [56]byte
}

// len16 bounds the bucket count; DefaultLatencyBuckets uses 12+1.
const len16 = 16

// Histogram is a fixed-bucket latency histogram. Observations are
// durations; bucket bounds are inclusive upper bounds with an implicit
// +Inf bucket. The zero value is not usable — construct via
// Registry.Histogram. A nil *Histogram discards.
type Histogram struct {
	bounds []time.Duration // sorted ascending, < len16 entries
	cells  [shards]histCell
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	if len(bounds) >= len16 {
		bounds = bounds[:len16-1]
	}
	sorted := append([]time.Duration(nil), bounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Histogram{bounds: sorted}
}

// Observe records one duration, attributing the write to the shard hint.
// The bucket scan is linear: bucket counts are small (≤15) and the scan
// touches one contiguous slice, which beats binary search at this size.
func (h *Histogram) Observe(hint int, d time.Duration) {
	if h == nil {
		return
	}
	c := &h.cells[shardFor(hint)]
	idx := len(h.bounds) // +Inf bucket
	for i, b := range h.bounds {
		if d <= b {
			idx = i
			break
		}
	}
	c.counts[idx].Add(1)
	c.sum.Add(int64(d))
	c.observed.Add(1)
}

// ObserveSince records the elapsed time since start — the idiom behind
// every latency histogram in the tree (`h.Observe(hint, time.Since(t0))`)
// folded into one call so call sites cannot mix up which clock stamp
// pairs with which histogram. A nil histogram discards without reading
// the clock.
func (h *Histogram) ObserveSince(hint int, start time.Time) {
	if h == nil {
		return
	}
	h.Observe(hint, time.Since(start))
}

// Timer measures one interval into a histogram: start it where the work
// begins, ObserveDuration where it ends. It is a value (no allocation)
// and is bound to its histogram at Start, so an early return cannot
// record into the wrong sink.
type Timer struct {
	h     *Histogram
	hint  int
	start time.Time
}

// Start begins timing an interval attributed to the shard hint. Safe on
// a nil histogram (ObserveDuration then only reports the elapsed time).
func (h *Histogram) Start(hint int) Timer {
	return Timer{h: h, hint: hint, start: time.Now()}
}

// ObserveDuration records the interval since Start and returns it.
func (t Timer) ObserveDuration() time.Duration {
	d := time.Since(t.start)
	t.h.Observe(t.hint, d)
	return d
}

// HistogramSnapshot is a histogram's folded state.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has len(Bounds)+1
	// entries, the last being the +Inf bucket.
	Bounds []time.Duration `json:"bounds_ns"`
	Counts []int64         `json:"counts"`
	Sum    time.Duration   `json:"sum_ns"`
	Count  int64           `json:"count"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// attributing every observation in a bucket to its upper bound. The +Inf
// bucket reports the highest finite bound.
func (hs HistogramSnapshot) Quantile(q float64) time.Duration {
	if hs.Count == 0 || len(hs.Bounds) == 0 {
		return 0
	}
	target := q * float64(hs.Count)
	seen := int64(0)
	for i, c := range hs.Counts {
		seen += c
		if float64(seen) >= target {
			if i < len(hs.Bounds) {
				return hs.Bounds[i]
			}
			return hs.Bounds[len(hs.Bounds)-1]
		}
	}
	return hs.Bounds[len(hs.Bounds)-1]
}

// snapshot folds the shards.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: make([]int64, len(h.bounds)+1),
	}
	for s := range h.cells {
		c := &h.cells[s]
		for i := range out.Counts {
			out.Counts[i] += c.counts[i].Load()
		}
		out.Sum += time.Duration(c.sum.Load())
		out.Count += c.observed.Load()
	}
	return out
}

// Registry owns a namespace of metrics. Registration (the Counter,
// Gauge, and Histogram methods) is get-or-create under a lock — the cold
// path, done once at wiring time; the returned pointers are then written
// lock-free. A nil *Registry returns nil instruments, which discard, so
// an entire instrumented stack can run sink-free by passing nil.
//
// A view from With shares its parent's namespace and adds its labels to
// every name registered through it.
type Registry struct {
	*namespace
	labels string // `k="v",…` a view adds to every name; "" on a root
}

// namespace is the metric store a registry and its views share.
type namespace struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{namespace: &namespace{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}}
}

// With returns a view of r that adds the label k="v" to every name it
// registers, after the labels the name already carries:
// r.With("shard", "1").Counter(`x{node="0"}`) is r's
// `x{node="0",shard="1"}`. The view shares r's namespace, so r's
// Snapshot lists what the view registers. A nil registry's view is nil.
func (r *Registry) With(k, v string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{namespace: r.namespace, labels: strings.TrimPrefix(r.labels+`,`+k+`="`+v+`"`, ",")}
}

// name bakes the view's labels into name.
func (r *Registry) name(name string) string {
	switch {
	case r.labels == "":
		return name
	case strings.HasSuffix(name, "}"):
		return name[:len(name)-1] + "," + r.labels + "}"
	default:
		return name + "{" + r.labels + "}"
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil bounds = DefaultLatencyBuckets). Bounds are
// fixed at creation; later calls with different bounds return the
// original.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	name = r.name(name)
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot folds every metric in the namespace, a view's parent's
// included. The maps are fresh copies; mutating them does not affect
// the registry. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counts {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.snapshot()
	}
	return snap
}

// Label bakes label pairs into a metric name at registration time:
// Label("x_total", "object", "vac") == `x_total{object="vac"}`. Keys are
// emitted in the order given; callers must pass a fixed order so the
// same series always maps to the same registry entry.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}
