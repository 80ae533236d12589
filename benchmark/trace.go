package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Span kinds. Every span of a sampled request carries the request's id;
// the root is the client call and the other three name it as parent.
const (
	spanClient  = iota // root: Put/Get as the generator saw it
	spanStorage        // one replica's AppendBatch that held the request's entry
	spanSend           // one endpoint Send/Broadcast that carried the entry
	spanApply          // one replica's Apply of the entry
)

var spanNames = [...]string{"client", "storage.append", "transport.send", "apply"}

// span is one timed call at a layer boundary, in ns since the probe's
// epoch. entries is the batch size for storage and send spans.
type span struct {
	req        uint32
	kind       uint8
	node       int8
	shard      int8
	entries    int32
	start, end int64
}

// replicaCounters are the always-counted totals of one (node, shard)
// replica's storage and state-machine wrappers while the probe is on.
type replicaCounters struct {
	appendCalls  atomic.Int64 // AppendBatch + TruncateAndAppend + SetState
	appendBusyNs atomic.Int64
	applyCalls   atomic.Int64
	applyBusyNs  atomic.Int64
}

// nodeCounters are one node's endpoint-wrapper totals while the probe
// is on.
type nodeCounters struct {
	sendCalls     atomic.Int64 // Send + Broadcast
	sendBusyNs    atomic.Int64
	sendErrors    atomic.Int64
	recvMsgs      atomic.Int64
	appendMsgs    atomic.Int64 // AppendEntries sent that carried entries (leaders only send these)
	appendEntries atomic.Int64
}

// probe is what the traced pass records into. The wrappers in surface.go
// hold one and call it from the program's own goroutines, so everything
// here is lock-free: counters are atomics, spans go into a slab sized up
// front and claimed with one atomic add. While disabled the wrappers
// pass straight through, which is how one run measures the same cluster
// with and without tracing.
type probe struct {
	enabled  atomic.Bool
	epoch    time.Time
	shards   int
	replicas []replicaCounters // [node*shards + shard]
	nodes    []nodeCounters
	spans    []span
	next     atomic.Int64
	dropped  atomic.Int64
}

// spanSlab bounds the spans of one traced window: every 64th op leaves
// about eight, so this covers well over a million ops.
const spanSlab = 1 << 18

func newProbe(nodes, shards int, epoch time.Time) *probe {
	return &probe{
		epoch:    epoch,
		shards:   shards,
		replicas: make([]replicaCounters, nodes*shards),
		nodes:    make([]nodeCounters, nodes),
		spans:    make([]span, spanSlab),
	}
}

func (p *probe) on() bool   { return p.enabled.Load() }
func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }
func (p *probe) replica(node, shard int) *replicaCounters {
	return &p.replicas[node*p.shards+shard]
}

func (p *probe) record(s span) {
	i := p.next.Add(1) - 1
	if int(i) >= len(p.spans) {
		p.dropped.Add(1)
		return
	}
	p.spans[i] = s
}

func (p *probe) recorded() []span {
	n := p.next.Load()
	if int(n) > len(p.spans) {
		n = int64(len(p.spans))
	}
	return p.spans[:n]
}

// requestBreakdown sums, over sampled writes with a complete set of
// leader-side spans, the four intervals that tile a request: invoke →
// leader AppendBatch start → leader Apply start → Apply end → return.
// Without storage (mem-sim) the leader's first send of the entry stands
// in for the AppendBatch start; the pipelined path issues the two
// together. The parts add up to latency by construction; complete says
// how many of the sampled requests had every span.
type requestBreakdown struct {
	sampled, complete                                 int
	queueUs, replicateUs, applyUs, replyUs, latencyUs float64
}

func (b *requestBreakdown) add(o requestBreakdown) {
	b.sampled += o.sampled
	b.complete += o.complete
	b.queueUs += o.queueUs
	b.replicateUs += o.replicateUs
	b.applyUs += o.applyUs
	b.replyUs += o.replyUs
	b.latencyUs += o.latencyUs
}

// breakdown joins each sampled request's root span with the storage and
// apply spans recorded on its shard's leader.
func breakdown(spans []span, leaderOf func(shard int) int) requestBreakdown {
	type parts struct {
		root, store, send, apply *span
	}
	byReq := make(map[uint32]*parts)
	get := func(id uint32) *parts {
		p := byReq[id]
		if p == nil {
			p = &parts{}
			byReq[id] = p
		}
		return p
	}
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanClient:
			get(s.req).root = s
		case spanStorage:
			if int(s.node) == leaderOf(int(s.shard)) {
				if p := get(s.req); p.store == nil || s.start < p.store.start {
					p.store = s
				}
			}
		case spanSend:
			if int(s.node) == leaderOf(int(s.shard)) {
				if p := get(s.req); p.send == nil || s.start < p.send.start {
					p.send = s
				}
			}
		case spanApply:
			if int(s.node) == leaderOf(int(s.shard)) {
				get(s.req).apply = s
			}
		}
	}
	var b requestBreakdown
	for _, p := range byReq {
		if p.root == nil {
			continue
		}
		b.sampled++
		if p.store == nil {
			p.store = p.send
		}
		if p.store == nil || p.apply == nil {
			continue
		}
		b.complete++
		b.queueUs += float64(p.store.start-p.root.start) / 1e3
		b.replicateUs += float64(p.apply.start-p.store.start) / 1e3
		b.applyUs += float64(p.apply.end-p.apply.start) / 1e3
		b.replyUs += float64(p.root.end-p.apply.end) / 1e3
		b.latencyUs += float64(p.root.end-p.root.start) / 1e3
	}
	return b
}

// writeSpans dumps the recorded spans as JSON lines: one object per span
// with its request id, name, parent, node, shard and times in ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		rec := map[string]any{
			"req": s.req, "name": spanNames[s.kind], "node": s.node, "shard": s.shard,
			"start_ns": s.start, "end_ns": s.end, "entries": s.entries,
		}
		if s.kind != spanClient {
			rec["parent"] = spanNames[spanClient]
		}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
