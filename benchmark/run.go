package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic shape on one substrate. Every workload runs 3
// replicas with the program's defaults; what differs is below.
type workload struct {
	name     string
	why      string
	shards   int
	tcp      bool    // loopback TCP + FileStorage; false: netsim, no storage
	clients  int     // closed-loop clients, or the open loop's worker pool
	rate     float64 // > 0: open loop at this fixed rate, ops/s
	readFrac float64
	zipf     bool
	// reportOnly: measured and printed by this program, absent from
	// BENCHMARK.json, so no later change is accepted or rejected on it.
	reportOnly bool
}

// openRate is the open loop's offered load. It is a constant — never
// calibrated at run time — so a parent commit and a change are offered
// the identical schedule. It is a quarter of what write-tcp's closed loop
// completes on the 2-CPU builder machine: at half (4000/s) queueing
// amplified the host's fsync jitter into a 33% run-to-run spread of p50.
const openRate = 2000

var workloads = []workload{
	{name: "write-tcp", shards: 1, tcp: true, clients: 8,
		why: "shipping write path, 8 closed-loop writers: batching and group commit engage; storage, syncer, transport, codec do the work"},
	{name: "open-tcp", shards: 1, tcp: true, clients: 64, rate: openRate, reportOnly: true,
		why: "same cluster, open loop at a fixed 2000 writes/s timed from due time: small batches, so per-op fsync and queueing show, not amortisation"},
	{name: "readmix-tcp", shards: 1, tcp: true, clients: 8, readFrac: 0.9, zipf: true,
		why: "90% linearizable reads, 10% writes, zipfian keys: ReadIndex rounds and transport carry the load, storage a quarter of it"},
	{name: "shards-tcp", shards: 4, tcp: true, clients: 8,
		why: "4 groups on the same 3 nodes, writes routed by key: mux, cross-group barrier coalescing and the router work here and idle in write-tcp"},
	{name: "mem-sim", shards: 1, tcp: false, clients: 16,
		why: "netsim with no delay and no storage, 16 writers: latency is processor time in raft loop, apply, client; fsync and wire layers are bypassed"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	replicas = 3
	// A run's window is cut into segments, each on a cluster of its own.
	// A cluster settles into one of a few operating points when it starts
	// (readmix-tcp: 18k or 15k ops/s for as long as it lives); one cluster
	// per run made the run's number a coin toss between them, five make
	// it their mix.
	segments         = 5
	setupsPerSegment = 8 // so an untraced run reports the median of 40
	warmup           = time.Second
	sliceLen         = time.Second
	slowOp           = 10 * time.Millisecond
	// maxDiscards: a segment in which an election ran is thrown away and
	// measured again on a fresh cluster, this many times per run at most
	// (a segment takes about 6 s and a run has 180).
	maxDiscards = 6
)

// runOpts are one run's command-line choices.
type runOpts struct {
	seed     uint64
	seconds  int
	traced   bool
	traceOut string
	dataRoot string // run directories are made (and removed) under here
}

// runResult is one workload measured once.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int // how many samples stand behind a metric
	notes             []string
}

func (r *runResult) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// errInvalid marks a run whose numbers must not be reported.
var errInvalid = errors.New("invalid run")

// slice is one second of a segment's window, reduced.
type slice struct {
	traced                   bool      // the wrappers were on
	all, writes, reads, late []float64 // ms
	slow                     int       // ops over slowOp
	rate                     float64   // ops/s, by the sampler's clock and counter
	cpuUs                    float64   // process CPU per completed op
}

// tally is what a run adds up over its segments. Counter fields hold
// growth: u over untraced slices, t over traced ones.
type tally struct {
	attempted, failed, completed int
	setups                       []float64
	hostSpeeds                   []float64   // the yardstick's readings, in time order; none when traced
	hostParts                    [][]float64 // per substrate, the same readings taken apart
	slices                       []slice
	u, t                         counters
	proc                         procSnapshot // over untraced slices
	lag                          []float64
	trace                        requestBreakdown
	walBytes, reloadNs           int64
	reloadEntries                int
	maxInflight, backlogEnd      int64
	peakRSSKB                    int64
	leaderChanges                int // seen in segments that were then discarded
}

// runWorkload measures w: segment after segment, re-measuring one when
// an election spoiled it, then reduces the tally to the pass's metrics.
func runWorkload(w workload, o runOpts) (runResult, error) {
	res := runResult{metrics: map[string]float64{}, samples: map[string]int{}}
	dir, err := os.MkdirTemp(o.dataRoot, w.name+"-")
	if err != nil {
		return res, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	// Whole seconds per segment; a traced segment needs one second with
	// the wrappers off and one with them on.
	segs, per, least := segments, o.seconds/segments, 1
	if o.traced {
		least = 2
	}
	if per < least {
		per = least
		segs = (o.seconds + per - 1) / per
	}
	epoch := time.Now()
	var p *probe
	if o.traced {
		p = newProbe(replicas, w.shards, epoch)
	}
	var t tally
	discards := 0
	for seg := 0; seg < segs; {
		// An untraced run reads the host's speed off the yardstick
		// (yardstick.go) before its first segment and after every one.
		if !o.traced && seg == 0 {
			if err := t.readHostSpeed(o.dataRoot, w.tcp); err != nil {
				return res, err
			}
		}
		segDir := filepath.Join(dir, fmt.Sprintf("seg-%d-%d", seg, discards))
		changes, err := measureSegment(w, o, seg, per, epoch, p, segDir, &t)
		if err != nil {
			return res, err
		}
		if !o.traced {
			if err := t.readHostSpeed(o.dataRoot, w.tcp); err != nil {
				return res, err
			}
		}
		if changes == 0 {
			seg++
			continue
		}
		discards++
		t.leaderChanges += changes
		fmt.Fprintf(os.Stderr, "%s: segment %d discarded: raft.leader_changes = %d under its load\n", w.name, seg, changes)
		if discards == maxDiscards {
			return res, fmt.Errorf("%w: a leader changed in %d windows", errInvalid, discards)
		}
	}
	res.attempted, res.failed = t.attempted, t.failed
	if o.traced {
		err = reducePerLayer(&res, o, &t, p, dir)
	} else {
		err = reduceEndToEnd(&res, w, &t)
	}
	return res, err
}

// sample is the process's cumulative cost at one instant.
type sample struct {
	at        int64 // ns since epoch
	cpuNs     int64
	completed int64
}

func cpuNow() (cpuNs int64, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), int64(ru.Maxrss)
}

// procSnapshot is the runtime's cumulative allocation and GC cost.
type procSnapshot struct {
	mallocs, allocBytes uint64
	gcCPU               float64 // seconds
	cpuNs               int64
}

func procNow() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtimemetrics.Read(s)
	p := procSnapshot{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == runtimemetrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	p.cpuNs, _ = cpuNow()
	return p
}

func (p *procSnapshot) addGrowth(from, to procSnapshot) {
	p.mallocs += to.mallocs - from.mallocs
	p.allocBytes += to.allocBytes - from.allocBytes
	p.gcCPU += to.gcCPU - from.gcCPU
	p.cpuNs += to.cpuNs - from.cpuNs
}

// setupOnce brings a cluster up in its own directory and times it from
// the first call to the first acknowledged write.
func setupOnce(w workload, dir string, p *probe) (*cluster, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	c, err := startCluster(clusterSpec{nodes: replicas, shards: w.shards, tcp: w.tcp, dir: dir, probe: p})
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for s := 0; s < w.shards; s++ {
		// One write per group, so every leader has committed in its term.
		if err := c.Put(ctx, warmKey(c, s), "warm"); err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("set-up: first write: %w", err)
		}
	}
	return c, time.Since(t0).Seconds(), nil
}

// warmKey finds a key outside every client's key space that routes to
// shard s.
func warmKey(c *cluster, s int) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("warm/%d", i)
		if c.shardOf(k) == s {
			return k
		}
	}
}

// measureSegment runs one segment — set-up, warm-up, `per` one-second
// slices, drain, checks — and adds it to t. It returns the leader
// changes seen while load was on; when that is not 0 nothing was added and
// nothing checked: Client.SubmitWait can acknowledge a write a new leader
// then truncates (ROADMAP item 4), and this benchmark measures the
// steady state, not that.
func measureSegment(w workload, o runOpts, seg, per int, epoch time.Time, p *probe, dir string, t *tally) (leaderChanges int, err error) {
	repeats := setupsPerSegment
	if o.traced {
		repeats = 1
	}
	var c *cluster
	var setups []float64
	for i := 0; i < repeats; i++ {
		if c != nil {
			c.stop()
		}
		var secs float64
		if c, secs, err = setupOnce(w, filepath.Join(dir, fmt.Sprint(i)), p); err != nil {
			return 0, err
		}
		setups = append(setups, secs)
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()

	half := per // first traced slice; == per when untraced
	if o.traced {
		half = per / 2
	}
	g := newGenerator(c, epoch, w, o.seed, uint64(seg), p)
	// From before the first op to after the last: an election during the
	// warm-up loses acknowledged writes just as one in the window does.
	leaders, termStart := c.leaders()
	g.start()
	windowStart := g.now() + int64(warmup)
	sleepUntil := func(t int64) {
		if d := t - g.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}

	var (
		samples            = make([]sample, per+1)
		kStart, kMid, kEnd counters
		procStart, procMid procSnapshot
		lag                []float64
		lagDone            chan struct{}
		peakRSSKB          int64
		spanFrom           int
	)
	sleepUntil(windowStart)
	for i := 0; i <= per; i++ {
		sleepUntil(windowStart + int64(i)*int64(sliceLen))
		var cpu int64
		cpu, peakRSSKB = cpuNow()
		samples[i] = sample{at: g.now(), cpuNs: cpu, completed: g.completed.Load()}
		if !o.traced {
			continue
		}
		switch i {
		case 0:
			kStart, procStart = c.counters(), procNow()
		case half:
			kMid, procMid = c.counters(), procNow()
			spanFrom = len(p.recorded())
			p.enabled.Store(true)
			lagDone = make(chan struct{})
			go func() {
				defer close(lagDone)
				for p.on() {
					lag = append(lag, float64(c.followerLag()))
					time.Sleep(100 * time.Millisecond)
				}
			}()
		case per:
			kEnd = c.counters()
			p.enabled.Store(false)
			<-lagDone
		}
	}
	g.halt()
	if _, termEnd := c.leaders(); termEnd != termStart {
		return termEnd - termStart, nil
	}

	// Checks. Replica agreement needs the cluster up; the WAL check
	// needs it stopped.
	if err := c.replicasAgree(5 * time.Second); err != nil {
		return 0, fmt.Errorf("%w: %v", errInvalid, err)
	}
	walBytes := c.walBytes()
	c.stop()
	stopped = true
	var reload walReload
	if w.tcp {
		if reload, err = c.reloadWALs(); err != nil {
			return 0, fmt.Errorf("%w: %v", errInvalid, err)
		}
	}
	for _, cl := range g.clients {
		if err := checkLinearizable(cl); err != nil {
			return 0, fmt.Errorf("%w: client %d: %v", errInvalid, cl.id, err)
		}
		if !w.tcp {
			continue
		}
		for _, r := range cl.recs {
			if !r.read && !r.failed && !reload.onQuorum(cl.id, r.version, replicas) {
				return 0, fmt.Errorf("%w: acknowledged write c%d v%d is in fewer than 2 of 3 WALs", errInvalid, cl.id, r.version)
			}
		}
	}

	// Reduce the op records to per-slice samples and add the segment up.
	slices := make([]slice, per)
	for i := range slices {
		a, b := samples[i], samples[i+1]
		slices[i].traced = i >= half
		// Rates come from the sampler's own clock and completion counter,
		// so a late wake-up at a boundary skews neither.
		slices[i].rate = float64(b.completed-a.completed) / (float64(b.at-a.at) / 1e9)
		slices[i].cpuUs = ratio(float64(b.cpuNs-a.cpuNs)/1e3, float64(b.completed-a.completed))
	}
	for _, cl := range g.clients {
		for _, r := range cl.recs {
			t.attempted++
			if r.failed {
				t.failed++
				continue
			}
			t.completed++
			i := int((r.ret - windowStart) / int64(sliceLen))
			if r.ret < windowStart || i >= per {
				continue
			}
			ms := float64(r.ret-r.due) / 1e6
			s := &slices[i]
			s.all = append(s.all, ms)
			if r.read {
				s.reads = append(s.reads, ms)
			} else {
				s.writes = append(s.writes, ms)
			}
			s.late = append(s.late, float64(r.issued-r.due)/1e6)
			if r.ret-r.due > int64(slowOp) {
				s.slow++
			}
		}
	}
	t.setups = append(t.setups, setups...)
	t.slices = append(t.slices, slices...)
	t.walBytes += walBytes
	t.reloadNs += reload.node0Ns
	t.reloadEntries += reload.node0Ents
	t.maxInflight = max(t.maxInflight, g.maxInflight)
	t.backlogEnd = max(t.backlogEnd, g.backlogEnd)
	t.peakRSSKB = max(t.peakRSSKB, peakRSSKB)
	if o.traced {
		t.u.addGrowth(kStart, kMid)
		t.t.addGrowth(kMid, kEnd)
		t.proc.addGrowth(procStart, procMid)
		t.lag = append(t.lag, lag...)
		t.trace.add(breakdown(p.recorded()[spanFrom:], func(s int) int {
			if s < 0 || s >= len(leaders) {
				return -1
			}
			return leaders[s]
		}))
	}
	return 0, nil
}

// readHostSpeed takes one yardstick reading. The collector runs first:
// a cycle over the garbage of the cluster just stopped would otherwise
// land inside the reading.
func (t *tally) readHostSpeed(dir string, tcp bool) error {
	runtime.GC()
	speed, parts, err := hostSpeed(dir, tcp)
	if err != nil {
		return err
	}
	t.hostSpeeds = append(t.hostSpeeds, speed)
	if t.hostParts == nil {
		t.hostParts = make([][]float64, len(parts))
	}
	for i, v := range parts {
		t.hostParts[i] = append(t.hostParts[i], v)
	}
	return nil
}

// pool gathers one field of the slices that were (or were not) traced.
func (t *tally) pool(traced bool, f func(*slice) []float64) (perSlice [][]float64, n int) {
	for i := range t.slices {
		if s := &t.slices[i]; s.traced == traced {
			perSlice = append(perSlice, f(s))
			n += len(f(s))
		}
	}
	return perSlice, n
}

func (t *tally) each(traced bool, f func(*slice) float64) []float64 {
	var out []float64
	for i := range t.slices {
		if s := &t.slices[i]; s.traced == traced {
			out = append(out, f(s))
		}
	}
	return out
}

func sliceAll(s *slice) []float64    { return s.all }
func sliceWrites(s *slice) []float64 { return s.writes }
func sliceReads(s *slice) []float64  { return s.reads }
func sliceRate(s *slice) float64     { return s.rate }

// reduceEndToEnd turns an untraced run's tally into the end-to-end
// metrics.
func reduceEndToEnd(res *runResult, w workload, t *tally) error {
	window, n := t.pool(false, sliceAll)
	if n == 0 {
		return fmt.Errorf("%w: no op completed in the window", errInvalid)
	}
	rate := midmean(t.each(false, sliceRate))
	if w.rate > 0 && rate < 0.98*w.rate {
		return fmt.Errorf("%w: open loop not keeping up: %.0f ops/s completed of %.0f offered, backlog %d", errInvalid, rate, w.rate, t.backlogEnd)
	}
	// Every reported number is what the nominal host would have shown: a
	// rate divided, a time multiplied, by the host's speed over the run —
	// the midmean of the yardstick's readings, so one reading a stall hit
	// moves nothing. An open loop's rate is what was offered, whatever the
	// host's speed, and stays as it is.
	speed := midmean(t.hostSpeeds)
	scaledRate := rate / speed
	if w.rate > 0 {
		scaledRate = rate
	}
	p50 := slicedPercentile(window, 0.50)
	res.set("ops_per_s", scaledRate, n)
	res.set("lat_p50_ms", p50*speed, n)
	res.set("setup_s", median(t.setups)*speed, len(t.setups))
	note := fmt.Sprintf("host speed %.3f of nominal, midmean of the yardstick's readings %.3f (", speed, t.hostSpeeds)
	for i, s := range yardSubstrates(w.tcp) {
		note += fmt.Sprintf("%s %.3f, ", s.name, midmean(t.hostParts[i]))
	}
	res.notes = append(res.notes, note+fmt.Sprintf("each against its constant); as measured, unscaled: %.1f ops/s, p50 %.4f ms, set-up %.4f s",
		rate, p50, median(t.setups)))
	return nil
}

// reducePerLayer turns a traced run's tally into the per-layer metrics:
// counters of the untraced slices (U), wrapper totals and spans of the
// traced slices (T), and the microbenches (M).
func reducePerLayer(res *runResult, o runOpts, t *tally, p *probe, dir string) error {
	_, nA := t.pool(false, sliceAll)
	_, nB := t.pool(true, sliceAll)
	if nA == 0 || nB == 0 {
		return fmt.Errorf("%w: a half of the window completed no op", errInvalid)
	}
	opsA, opsB := float64(nA), float64(nB)
	set := res.set

	// U
	var slow int
	var late []float64
	for i := range t.slices {
		if s := &t.slices[i]; !s.traced {
			slow += s.slow
			late = append(late, s.late...)
		}
	}
	sort.Float64s(late)
	ws, nw := t.pool(false, sliceWrites)
	rs, nr := t.pool(false, sliceReads)
	all, _ := t.pool(false, sliceAll)
	set("client.lat_p90_ms", slicedPercentile(all, 0.90), nA)
	set("client.lat_p99_ms", slicedPercentile(all, 0.99), nA)
	set("client.write_p99_ms", slicedPercentile(ws, 0.99), nw)
	set("client.over_10ms_frac", float64(slow)/opsA, nA)
	set("raft.leader_changes", float64(t.leaderChanges), len(t.slices))
	set("storage.fsyncs_per_op", float64(t.u.fsyncs)/opsA, nA)
	set("storage.wal_bytes_per_op", ratio(float64(t.walBytes), float64(t.completed)), t.completed)
	set("storage.reload_ms", float64(t.reloadNs)/1e6, t.reloadEntries)
	set("storage.reload_us_per_kentry", ratio(float64(t.reloadNs)/1e3, float64(t.reloadEntries)/1e3), t.reloadEntries)
	set("syncer.requests_per_op", float64(t.u.syncRequests)/opsA, nA)
	set("syncer.barriers_per_op", float64(t.u.syncBarriers)/opsA, nA)
	set("syncer.mean_width", ratio(float64(t.u.syncRequests), float64(t.u.syncBarriers)), int(t.u.syncBarriers))
	served := t.u.readLease + t.u.readIndex
	set("read.index_frac", ratio(float64(t.u.readIndex), float64(served)), int(served))
	set("read.lease_frac", ratio(float64(t.u.readLease), float64(served)), int(served))
	set("read.forwarded_frac", ratio(float64(t.u.readForwarded), float64(served)), int(served))
	set("read.p99_ms", slicedPercentile(rs, 0.99), nr)
	cpu := t.each(false, func(s *slice) float64 { return s.cpuUs })
	set("proc.cpu_us_per_op", midmean(cpu), len(cpu))
	set("proc.allocs_per_op", float64(t.proc.mallocs)/opsA, nA)
	set("proc.alloc_bytes_per_op", float64(t.proc.allocBytes)/opsA, nA)
	set("proc.gc_cpu_frac", ratio(t.proc.gcCPU, float64(t.proc.cpuNs)/1e9), nA)
	set("proc.peak_rss_mb", float64(t.peakRSSKB)/1024, 1)
	set("gen.late_p99_ms", percentile(late, 0.99), len(late))
	set("gen.max_inflight", float64(t.maxInflight), 1)
	set("gen.backlog_end", float64(t.backlogEnd), 1)
	set("gen.trace_overhead_frac", 1-ratio(midmean(t.each(true, sliceRate)), midmean(t.each(false, sliceRate))), nA+nB)

	// T
	b := t.trace
	done := float64(b.complete)
	set("client.queue_us", ratio(b.queueUs, done), b.complete)
	set("client.reply_us", ratio(b.replyUs, done), b.complete)
	set("raft.replicate_us", ratio(b.replicateUs, done), b.complete)
	var appendCalls, appendBusy, applyCalls, applyBusy int64
	for i := range p.replicas {
		rc := &p.replicas[i]
		appendCalls += rc.appendCalls.Load()
		appendBusy += rc.appendBusyNs.Load()
		applyCalls += rc.applyCalls.Load()
		applyBusy += rc.applyBusyNs.Load()
	}
	var sendCalls, sendBusy, sendErrors, recvMsgs, appendMsgs, appendEntries int64
	for i := range p.nodes {
		nc := &p.nodes[i]
		sendCalls += nc.sendCalls.Load()
		sendBusy += nc.sendBusyNs.Load()
		sendErrors += nc.sendErrors.Load()
		recvMsgs += nc.recvMsgs.Load()
		appendMsgs += nc.appendMsgs.Load()
		appendEntries += nc.appendEntries.Load()
	}
	set("raft.entries_per_append", ratio(float64(appendEntries), float64(appendMsgs)), int(appendMsgs))
	set("raft.msgs_per_op", float64(sendCalls)/opsB, nB)
	set("raft.follower_lag_p50", median(t.lag), len(t.lag))
	set("storage.appends_per_op", float64(appendCalls)/opsB, nB)
	set("storage.append_busy_us_per_op", float64(appendBusy)/1e3/opsB, nB)
	set("mux.msgs_per_op", float64(recvMsgs)/opsB, nB)
	set("transport.send_busy_us_per_op", float64(sendBusy)/1e3/opsB, nB)
	set("transport.bytes_per_op", float64(t.t.wireBytes)/opsB, nB)
	set("transport.send_errors", float64(sendErrors), int(sendCalls))
	set("apply.busy_us_per_op", float64(applyBusy)/1e3/opsB, nB)
	set("apply.calls_per_op", float64(applyCalls)/opsB, nB)
	set("netsim.msgs_per_op", float64(t.t.netsimSends)/opsB, nB)
	spans := p.recorded()
	res.notes = append(res.notes, fmt.Sprintf(
		"trace: %d spans (%d dropped), %d sampled writes, %d with every leader-side span; queue %.1f + replicate %.1f + apply %.1f + reply %.1f = %.1f us of %.1f us mean latency",
		len(spans), p.dropped.Load(), b.sampled, b.complete,
		ratio(b.queueUs, done), ratio(b.replicateUs, done), ratio(b.applyUs, done), ratio(b.replyUs, done),
		ratio(b.queueUs+b.replicateUs+b.applyUs+b.replyUs, done), ratio(b.latencyUs, done)))
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return err
		}
	}

	// M
	micro, err := runMicro(dir)
	if err != nil {
		return err
	}
	for name, v := range micro {
		set(name, v, 5)
	}
	return nil
}
