package raft

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ooc/internal/metrics"
)

// Disk models one shared storage device. Multi-Raft runs many FileStorage
// logs on a node, but they usually share a disk: however many files are
// dirty, the device can absorb their writes in a single flush, and
// concurrent barriers serialize at the device. SlowDisk (per-Storage
// latency, concurrent sleeps overlap) models the opposite — one
// independent device per group — so the two are different fixtures, not
// alternatives: E16 keeps SlowDisk, E18 shares one Disk across a node's
// groups.
//
// Barrier blocks for the configured latency while holding the device
// lock, so K concurrent barriers cost K·latency — exactly the queueing
// the SyncCoalescer removes by paying one Barrier for K groups. A nil
// *Disk (or zero latency) is a free barrier: real fsyncs already paid at
// the file layer, and the host device is not being modeled. A modeled
// barrier is time.Sleep, which frees the caller's P at once; a real one
// is a syscall that keeps it (FileStorage.SyncDevice), so E16 and E18
// never saw what a barrier costs the goroutines queued behind its caller.
type Disk struct {
	mu      sync.Mutex
	latency time.Duration
}

// NewDisk returns a shared-device model with the given per-barrier
// latency. Zero latency is valid and makes Barrier free.
func NewDisk(latency time.Duration) *Disk {
	return &Disk{latency: latency}
}

// Barrier pays one device flush. Safe on a nil receiver.
func (d *Disk) Barrier() {
	if d == nil || d.latency <= 0 {
		return
	}
	d.mu.Lock()
	time.Sleep(d.latency)
	d.mu.Unlock()
}

// SyncTarget is what the coalescer makes durable: one group's log file.
// SyncDevice must issue the file's real barrier and must be safe to call
// from the barrier leader's goroutine — the caller's own goroutine is
// parked while a shared barrier covers it. FileStorage implements it, and
// yields once before blocking, so a caller must not hold a lock across
// SyncDevice that a runnable goroutine needs.
type SyncTarget interface {
	SyncDevice() error
}

// syncReq is one parked "make my batch durable" request. done is a
// buffered handshake channel (never closed, reused via the pool): the
// leader sends exactly one token, either releasing the waiter with its
// barrier's outcome or — when lead is set — promoting it to lead the
// next round itself.
type syncReq struct {
	target SyncTarget
	err    error
	width  int
	lead   []*syncReq // non-nil after promotion: the batch this req now leads
	done   chan struct{}
}

// SyncerConfig parameterizes NewSyncCoalescer.
type SyncerConfig struct {
	// Disk, if non-nil, is the shared-device model every barrier pays.
	// Nil means "real device only": per-file fsyncs still happen, the
	// modeled barrier is free.
	Disk *Disk
	// PerGroup disables coalescing: every Sync pays its own device
	// barrier, serialized through Disk. This is the pre-PR10 baseline,
	// kept in-binary for A/B runs (raftkv -sync-coalesce=false).
	PerGroup bool
	// Metrics, if non-nil, registers the syncer's instruments
	// (raft_sync_requests_total, raft_sync_barriers_total,
	// raft_sync_coalesced_total, raft_sync_barrier_width), labeled by
	// Node.
	Metrics *metrics.Registry
	// Node labels the metrics; the syncer is per-node, not per-group.
	Node int
}

// SyncCoalescer turns K concurrent durability requests from a node's
// Raft groups into one device barrier. Each group's persist worker
// appends to its own file, then calls Sync; the first requester becomes
// the barrier leader, fsyncs its own file, absorbs every request that
// arrived meanwhile (fsyncing their files too — a waiter is only covered
// once its own fd is clean), pays one Disk.Barrier for the whole round,
// and releases the waiters. Requests that arrive mid-round park; when
// the round ends, leadership hands off to the oldest waiter so a hot
// leader can't starve the queue.
//
// The uncontended path — one group, or requests that never overlap —
// takes three uncontended mutex sections and no allocations, so a
// single-shard node pays nothing for the machinery (the degenerate-case
// gate in groupcommit_accept_test.go holds this to ≤3% vs PR9).
//
// Errors stay per-group: each covered request carries the error from its
// own file's fsync, so one group's bad fd fails only that group.
type SyncCoalescer struct {
	disk     *Disk
	perGroup bool

	mu      sync.Mutex
	busy    bool // a barrier round is in flight
	pending []*syncReq

	pool sync.Pool // *syncReq, contended path only

	requests  atomic.Int64
	barriers  atomic.Int64
	coalesced atomic.Int64

	metricsOn  bool
	node       int
	reqsC      *metrics.Counter
	barriersC  *metrics.Counter
	coalescedC *metrics.Counter
	widthH     *metrics.Histogram
}

// NewSyncCoalescer builds a per-node syncer. One instance serves every
// group on the node; Sync is safe for concurrent use.
func NewSyncCoalescer(cfg SyncerConfig) *SyncCoalescer {
	c := &SyncCoalescer{disk: cfg.Disk, perGroup: cfg.PerGroup, node: cfg.Node}
	if reg := cfg.Metrics; reg != nil {
		node := strconv.Itoa(cfg.Node)
		c.metricsOn = true
		c.reqsC = reg.Counter(metrics.Label("raft_sync_requests_total", "node", node))
		c.barriersC = reg.Counter(metrics.Label("raft_sync_barriers_total", "node", node))
		c.coalescedC = reg.Counter(metrics.Label("raft_sync_coalesced_total", "node", node))
		c.widthH = reg.Histogram(metrics.Label("raft_sync_barrier_width", "node", node), countBuckets)
	}
	return c
}

// PerGroup reports whether coalescing is disabled (the A/B baseline).
func (c *SyncCoalescer) PerGroup() bool { return c.perGroup }

// Requests reports how many Sync calls the syncer has served.
func (c *SyncCoalescer) Requests() int64 { return c.requests.Load() }

// Barriers reports how many device barriers were paid. With coalescing
// this is the node-wide fsync count E18 divides by ops; per-group mode
// pins it equal to Requests.
func (c *SyncCoalescer) Barriers() int64 { return c.barriers.Load() }

// Coalesced reports how many requests rode another request's barrier
// (Requests − Barriers in coalesced mode).
func (c *SyncCoalescer) Coalesced() int64 { return c.coalesced.Load() }

// Sync makes t durable and returns the width of the barrier that covered
// it — how many groups' requests shared the device flush (1 when it flew
// alone). Blocks until t's own fsync and the covering barrier have both
// completed; the returned error is from t's own fsync only.
func (c *SyncCoalescer) Sync(t SyncTarget) (int, error) {
	c.requests.Add(1)
	if c.metricsOn {
		c.reqsC.Inc(c.node)
	}
	if c.perGroup {
		err := t.SyncDevice()
		c.disk.Barrier()
		c.observeBarrier(1)
		return 1, err
	}
	c.mu.Lock()
	if !c.busy {
		c.busy = true
		c.mu.Unlock()
		err := t.SyncDevice() // c.mu released: SyncDevice yields
		width := c.closeRound(nil)
		return width, err
	}
	r := c.newReq(t)
	c.pending = append(c.pending, r)
	c.mu.Unlock()
	<-r.done
	if r.lead != nil {
		c.leadBatch(r.lead)
	}
	width, err := r.width, r.err
	c.freeReq(r)
	return width, err
}

// leadBatch runs a barrier round on behalf of a promoted waiter:
// batch[0] is the promoted request itself (its own fsync not yet
// issued), the rest are its cohort. Results land in each req; the
// cohort is released, batch[0]'s caller reads its fields directly. Called
// without c.mu, as SyncDevice's yield requires.
func (c *SyncCoalescer) leadBatch(batch []*syncReq) {
	for _, q := range batch {
		q.err = q.target.SyncDevice()
	}
	width := c.closeRound(batch)
	batch[0].width = width
}

// closeRound finishes the in-flight round after the leader's own fsync:
// absorb late arrivals, pay the one device barrier, release everyone,
// hand leadership to any still-parked requests. synced holds requests
// whose files are already clean (the promoted batch); late arrivals are
// fsynced here, with c.mu released (SyncDevice yields). Returns the
// round's width.
func (c *SyncCoalescer) closeRound(synced []*syncReq) int {
	c.mu.Lock()
	extra := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, q := range extra {
		q.err = q.target.SyncDevice()
	}
	c.disk.Barrier()
	width := 1 + len(extra)
	if synced != nil {
		width = len(synced) + len(extra)
	}
	c.observeBarrier(width)
	if synced != nil {
		for _, q := range synced[1:] {
			q.width = width
			q.done <- struct{}{}
		}
	}
	for _, q := range extra {
		q.width = width
		q.done <- struct{}{}
	}
	c.handoff()
	return width
}

// handoff ends the round: if requests parked after the last steal, the
// oldest one is promoted to lead them all in a fresh round (leadership
// rotates, so one endlessly-busy group cannot starve the others);
// otherwise the syncer goes idle.
func (c *SyncCoalescer) handoff() {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.busy = false
		c.mu.Unlock()
		return
	}
	next := c.pending
	c.pending = nil
	c.mu.Unlock()
	next[0].lead = next
	next[0].done <- struct{}{}
}

func (c *SyncCoalescer) observeBarrier(width int) {
	c.barriers.Add(1)
	if width > 1 {
		c.coalesced.Add(int64(width - 1))
	}
	if c.metricsOn {
		c.barriersC.Inc(c.node)
		if width > 1 {
			c.coalescedC.Add(c.node, int64(width-1))
		}
		c.widthH.Observe(c.node, time.Duration(width))
	}
}

// barrierWidth reports how many groups shared the barrier covering st's
// most recent flush — 1 for storages that don't track it (MemStorage,
// wrappers that don't forward LastBarrierWidth).
func barrierWidth(st Storage) int {
	if ws, ok := st.(interface{ LastBarrierWidth() int }); ok {
		return ws.LastBarrierWidth()
	}
	return 1
}

func (c *SyncCoalescer) newReq(t SyncTarget) *syncReq {
	if v := c.pool.Get(); v != nil {
		r := v.(*syncReq)
		r.target, r.err, r.width, r.lead = t, nil, 0, nil
		return r
	}
	return &syncReq{target: t, done: make(chan struct{}, 1)}
}

func (c *SyncCoalescer) freeReq(r *syncReq) {
	r.target, r.err, r.lead = nil, nil, nil
	c.pool.Put(r)
}
