package raft

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"ooc/internal/metrics"
)

// Disk models one shared storage device, the only device model there is.
// Multi-Raft runs many FileStorage logs on a node, but they share a disk:
// however many files are dirty, the device can absorb their writes in a
// single flush, and concurrent barriers serialize at the device. E16 gives
// each node one Disk, reached through SyncerConfig.Disk
// (shard.Config.DeviceLatency).
//
// Barrier blocks for the configured latency while holding the device
// lock, so K concurrent barriers cost K·latency — exactly the queueing
// the SyncCoalescer removes by paying one Barrier for K groups. A nil
// *Disk (or zero latency) is a free barrier: the round has already paid
// the host device's real flush, and that device is not being modeled. A
// modeled barrier is time.Sleep, which frees the caller's P at once; a
// real one is a syscall that keeps it (FileStorage.SyncDevice), so E16
// does not see what a barrier costs the goroutines queued behind its
// caller.
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
// next round itself. file is the target again when a FileStorage asked;
// wb is set while its write-back awaits a device flush to cover it.
type syncReq struct {
	target SyncTarget
	file   *FileStorage
	wb     bool
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
	// Metrics, if non-nil, registers the syncer's instruments
	// (raft_sync_requests_total, raft_sync_barriers_total,
	// raft_sync_coalesced_total, raft_sync_writebacks_total,
	// raft_sync_flushes_total, raft_sync_barrier_width, and how long a
	// round's steps take: raft_sync_stage_seconds{stage="wait"|"flush"},
	// raft_sync_parked_seconds), labeled by Node.
	Metrics *metrics.Registry
	// Node labels the metrics; the syncer is per-node, not per-group.
	Node int
}

// SyncCoalescer turns K concurrent durability requests from a node's
// Raft groups into one device barrier. It is the one way a FileStorage
// reaches its device: a store on the node's shared coalescer (SetSyncer)
// rounds with the node's other groups, and a store not on a shared
// coalescer runs its own. Each group's persist worker writes to its own
// file and starts those bytes' write-out where that is a step toward
// durability (FileStorage.flush), then asks for the barrier;
// the first requester becomes the round leader, sees its own file's bytes
// onto the device, absorbs every request that arrived meanwhile and does
// the same for their files, flushes the device's cache, pays one
// Disk.Barrier for the whole round, and releases the waiters. Requests
// that arrive mid-round park, their write-out under way beneath the round
// in progress; when it ends, leadership hands off to the oldest waiter so
// a hot leader can't starve the queue.
//
// A barrier has two halves, as Disk.Barrier models: the bytes reach the
// device, then its cache is flushed. A FileStorage whose flush stayed in
// place (FileStorage.inPlace) is only written back: its owner submitted
// the range before queueing (a hint), the round — which never submits —
// writes whatever is still dirty and waits for all of it (the guarantee;
// sysSync says why), and one fdatasync after the last stage is the flush
// for every such file on its device. Sound because that flush changed no
// metadata and the filesystem overwrites in place (overwritesInPlace):
// only the device's cache stands between written pages and the medium,
// and a crash before the flush leaves what one inside fdatasync always
// could (DESIGN.md §3.2.3). Any other member — a flush that changed its
// file's size, a filesystem off the list, a foreign SyncTarget — takes
// its own SyncDevice.
//
// The uncontended path — one group, or requests that never overlap —
// takes three uncontended mutex sections and no allocations. A round of
// one in-place file is still submit, yield, wait, flush: the store's own
// coalescer costs it the same round a shared one would.
//
// Errors stay per-group: each request carries the error from getting its
// own file to the device, so one group's bad fd fails only that group;
// only a failed closing flush is shared, by the members it was for.
type SyncCoalescer struct {
	disk *Disk

	mu      sync.Mutex
	busy    bool // a barrier round is in flight
	pending []*syncReq

	pool sync.Pool // *syncReq, contended path only

	// requests, barriers and coalesced are never nil: the registry's
	// series when one is attached, the syncer's own counters otherwise.
	requests    *metrics.Counter
	barriers    *metrics.Counter
	coalesced   *metrics.Counter
	metricsOn   bool
	node        int
	writebacksC *metrics.Counter
	flushesC    *metrics.Counter
	widthH      *metrics.Histogram
	waitH       *metrics.Histogram // one stage: yield, waits, members' own SyncDevices
	flushH      *metrics.Histogram // the closing flush, in rounds that issue one
	parkedH     *metrics.Histogram // a parked request, until release or promotion
}

// barrierBuckets resolve a round's steps, 8 µs to 65 ms doubling: a local
// device's tens to hundreds of µs, a modeled or struggling one's ms.
var barrierBuckets = []time.Duration{8e3, 16e3, 32e3, 64e3, 128e3, 256e3, 512e3, 1024e3, 2048e3, 4096e3, 8192e3, 16384e3, 32768e3, 65536e3}

// NewSyncCoalescer builds a per-node syncer. One instance serves every
// group on the node; Sync is safe for concurrent use.
func NewSyncCoalescer(cfg SyncerConfig) *SyncCoalescer {
	c := &SyncCoalescer{disk: cfg.Disk, node: cfg.Node}
	reg := cfg.Metrics
	if reg == nil {
		c.requests, c.barriers, c.coalesced = new(metrics.Counter), new(metrics.Counter), new(metrics.Counter)
	} else {
		node := strconv.Itoa(cfg.Node)
		c.metricsOn = true
		c.requests = reg.Counter(metrics.Label("raft_sync_requests_total", "node", node))
		c.barriers = reg.Counter(metrics.Label("raft_sync_barriers_total", "node", node))
		c.coalesced = reg.Counter(metrics.Label("raft_sync_coalesced_total", "node", node))
		c.writebacksC = reg.Counter(metrics.Label("raft_sync_writebacks_total", "node", node))
		c.flushesC = reg.Counter(metrics.Label("raft_sync_flushes_total", "node", node))
		c.widthH = reg.Histogram(metrics.Label("raft_sync_barrier_width", "node", node), countBuckets)
		c.waitH = reg.Histogram(metrics.Label("raft_sync_stage_seconds", "node", node, "stage", "wait"), barrierBuckets)
		c.flushH = reg.Histogram(metrics.Label("raft_sync_stage_seconds", "node", node, "stage", "flush"), barrierBuckets)
		c.parkedH = reg.Histogram(metrics.Label("raft_sync_parked_seconds", "node", node), barrierBuckets)
	}
	return c
}

// Requests reports how many Sync calls the syncer has served.
func (c *SyncCoalescer) Requests() int64 { return c.requests.Value() }

// Barriers reports how many device barriers were paid: the rounds, the
// node-wide device-flush count E16 divides by ops.
func (c *SyncCoalescer) Barriers() int64 { return c.barriers.Value() }

// Coalesced reports how many requests rode another request's barrier
// (Requests − Barriers).
func (c *SyncCoalescer) Coalesced() int64 { return c.coalesced.Value() }

// Sync makes t durable and returns the width of the barrier that covered
// it — how many groups' requests shared the device flush (1 when it flew
// alone). Blocks until t's own bytes are on the device and the covering
// barrier has completed; the returned error is t's own, or that of the
// flush that closed the round t was written back in.
func (c *SyncCoalescer) Sync(t SyncTarget) (int, error) { return c.sync(t, nil) }

// sync is Sync with the target's FileStorage beside it, nil if foreign.
func (c *SyncCoalescer) sync(t SyncTarget, file *FileStorage) (int, error) {
	c.requests.Inc(c.node)
	c.mu.Lock()
	if !c.busy {
		c.busy = true
		c.mu.Unlock()
		self := syncReq{target: t, file: file} // stays on the stack
		batch := [1]*syncReq{&self}
		c.leadBatch(batch[:])
		return self.width, self.err
	}
	r := c.newReq(t, file)
	c.pending = append(c.pending, r)
	c.mu.Unlock()
	t0 := c.now()
	<-r.done
	c.parkedH.ObserveSince(c.node, t0)
	if r.lead != nil {
		c.leadBatch(r.lead)
	}
	width, err := r.width, r.err
	c.freeReq(r)
	return width, err
}

// round is the requests one barrier covers — the leader's batch, then the
// arrivals absorbed while that was written out — and what it cost.
type round struct {
	batch, extra        []*syncReq
	writebacks, flushes int
}

func (r *round) width() int { return len(r.batch) + len(r.extra) }

func (r *round) at(i int) *syncReq {
	if i < len(r.batch) {
		return r.batch[i]
	}
	return r.extra[i-len(r.batch)]
}

// cover ends the wait of every written-back member on dev: that device's
// cache has been flushed since their bytes reached it, or the flush
// failed with err, which is then theirs.
func (r *round) cover(dev uint64, err error) {
	for i := 0; i < r.width(); i++ {
		if q := r.at(i); q.wb && q.file.dev == dev {
			q.wb = false
			if err != nil {
				q.err = err
			}
		}
	}
}

// leadBatch runs a barrier round: batch[0] is the leader's own request
// (first arrival, or promoted by handoff), the rest its cohort. Two
// stages see bytes onto the device — the batch, then whatever parked
// during that wait, the absorb window — and the closing flush follows,
// one per device with a written-back member no SyncDevice has covered.
// The cohort is released; batch[0]'s caller reads its fields directly.
// Called without c.mu: every stage yields.
func (c *SyncCoalescer) leadBatch(batch []*syncReq) {
	r := round{batch: batch}
	t0 := c.now()
	r.stage(batch)
	c.waitH.ObserveSince(c.node, t0)
	c.mu.Lock()
	r.extra = c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(r.extra) > 0 {
		t0 = c.now()
		r.stage(r.extra)
		c.waitH.ObserveSince(c.node, t0)
	}
	t0, staged := c.now(), r.flushes
	for i := 0; i < r.width(); i++ {
		if q := r.at(i); q.wb {
			r.flushes++
			r.cover(q.file.dev, q.file.flushDevice())
		}
	}
	if r.flushes > staged {
		c.flushH.ObserveSince(c.node, t0)
	}
	c.disk.Barrier()
	width := r.width()
	c.observeBarrier(width, r.writebacks, r.flushes)
	for i := 1; i < width; i++ {
		q := r.at(i)
		q.width = width
		q.done <- struct{}{}
	}
	batch[0].width = width
	c.handoff()
}

// stage sees members' bytes onto the device. In-place files are waited
// for — each owner submitted its own range before it queued, so their
// I/Os have overlapped since, with each other and with the round then in
// progress — after one yield: SyncDevice's, made by the stage because it
// is the stage that blocks. Every other member, and one whose write-back
// the kernel refused, then takes its own SyncDevice; coming after the
// waits, a FileStorage's also covers what the round has written back.
func (r *round) stage(members []*syncReq) {
	yielded := false
	for _, q := range members {
		if q.file != nil && q.file.inPlace {
			if !yielded {
				runtime.Gosched()
				yielded = true
			}
			if q.wb, q.err = q.file.writeBack(opWriteBackWait); q.wb {
				r.writebacks++
			}
		}
	}
	for _, q := range members {
		if q.err != nil || q.file != nil && q.file.inPlace {
			continue // failed, or written back above
		}
		r.flushes++
		q.err = q.target.SyncDevice()
		if q.file != nil && q.err == nil {
			r.cover(q.file.dev, nil)
		}
	}
}

// now stamps the start of a step to time with metrics on, and reads no
// clock with them off.
func (c *SyncCoalescer) now() (t time.Time) {
	if c.metricsOn {
		t = time.Now()
	}
	return t
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

func (c *SyncCoalescer) observeBarrier(width, writebacks, flushes int) {
	c.barriers.Inc(c.node)
	c.coalesced.Add(c.node, int64(width-1))
	c.writebacksC.Add(c.node, int64(writebacks))
	c.flushesC.Add(c.node, int64(flushes))
	c.widthH.Observe(c.node, time.Duration(width))
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

func (c *SyncCoalescer) newReq(t SyncTarget, file *FileStorage) *syncReq {
	if v := c.pool.Get(); v != nil {
		r := v.(*syncReq)
		r.target, r.file, r.wb, r.err, r.width, r.lead = t, file, false, nil, 0, nil
		return r
	}
	return &syncReq{target: t, file: file, done: make(chan struct{}, 1)}
}

func (c *SyncCoalescer) freeReq(r *syncReq) {
	r.target, r.file, r.err, r.lead = nil, nil, nil, nil
	c.pool.Put(r)
}
