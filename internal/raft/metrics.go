package raft

import (
	"strconv"
	"time"

	"ooc/internal/metrics"
)

// nodeMetrics is the node's telemetry bundle. Only the main loop touches
// the pending-commit map, so it needs no lock; the instruments are atomic
// and are also observed off the loop — applies on the apply worker, read
// answers on the reading caller's goroutine (onReadServed). A nil
// registry yields a disabled bundle whose methods no-op, mirroring the
// nil-Recorder convention.
type nodeMetrics struct {
	enabled bool
	node    int

	termChanges   *metrics.Counter
	elections     *metrics.Counter
	electionsWon  *metrics.Counter
	heartbeats    *metrics.Counter
	appends       *metrics.Counter
	committed     *metrics.Counter
	applied       *metrics.Counter
	snapshots     *metrics.Counter
	term          *metrics.Gauge
	commitIndex   *metrics.Gauge
	commitLatency *metrics.Histogram

	// Replication-pipeline instruments. The two size histograms reuse the
	// duration-based Histogram with unit bounds: an observation of n is
	// recorded as time.Duration(n), so bucket bounds read as plain counts.
	proposeBatch  *metrics.Histogram // proposals coalesced per loop iteration
	appendEntries *metrics.Histogram // entries per AppendEntries sent
	inflightDepth *metrics.Histogram // pipeline depth after each send
	storageFlush  *metrics.Counter   // group-commit flushes (≈ fsyncs)
	storageRecs   *metrics.Counter   // log mutations inside those flushes

	// Read fast-path instruments (reads never touch the log, so they get
	// their own family): per-mode served counters, the coalescing width
	// of confirmation rounds, request→reply latency, and the lease
	// lifecycle (renewals, lapses under load, step-down invalidations).
	readsByMode    map[string]*metrics.Counter
	readRounds     *metrics.Counter
	readBatch      *metrics.Histogram // waiters per confirmed round
	readLatency    *metrics.Histogram
	readsForwarded *metrics.Counter
	leaseHolds     *metrics.Counter
	leaseExpiries  *metrics.Counter
	leaseInvalid   *metrics.Counter

	// Commit-pipeline instruments (PR9). Queue depths are gauges sampled
	// at every enqueue/dequeue; the overlap counters split commits on a
	// leader by whether the quorum formed before the leader's own fsync
	// landed (the pipelined win) or after (disk was not the bottleneck);
	// self-ack lag is commitIndex − durableIndex at the moment the
	// leader's fsync completes, i.e. how far the followers ran ahead.
	persistDepth  *metrics.Gauge
	applyDepth    *metrics.Gauge
	commitOverlap *metrics.Counter // commit reached before leader fsync
	commitInOrder *metrics.Counter // leader fsync landed first
	selfAckLag    *metrics.Histogram

	// AppendEntriesReply departures by how they left flush(): at once
	// (the disk already backed the claim) or behind a persist. On a
	// follower under read load, "are confirmations waiting on the disk?"
	// is the ratio of the two.
	repliesFree   *metrics.Counter
	repliesFenced *metrics.Counter

	// Main-loop passes and what they took in, in onLoopPass's order.
	loopWakes  *metrics.Counter
	loopInputs [5]*metrics.Counter

	// pending maps a leader-appended log index to its append time; the
	// entry is consumed when that index commits. Losing leadership
	// abandons the map (those entries may commit under a later leader,
	// whose latency we cannot attribute).
	pending map[int]time.Time
}

func newNodeMetrics(reg *metrics.Registry, id int) *nodeMetrics {
	if reg == nil {
		return &nodeMetrics{}
	}
	node := strconv.Itoa(id)
	m := &nodeMetrics{
		enabled:       true,
		node:          id,
		termChanges:   reg.Counter(metrics.Label("raft_term_changes_total", "node", node)),
		elections:     reg.Counter(metrics.Label("raft_elections_started_total", "node", node)),
		electionsWon:  reg.Counter(metrics.Label("raft_elections_won_total", "node", node)),
		heartbeats:    reg.Counter(metrics.Label("raft_heartbeats_total", "node", node)),
		appends:       reg.Counter(metrics.Label("raft_entries_appended_total", "node", node)),
		committed:     reg.Counter(metrics.Label("raft_entries_committed_total", "node", node)),
		applied:       reg.Counter(metrics.Label("raft_entries_applied_total", "node", node)),
		snapshots:     reg.Counter(metrics.Label("raft_snapshots_total", "node", node)),
		term:          reg.Gauge(metrics.Label("raft_current_term", "node", node)),
		commitIndex:   reg.Gauge(metrics.Label("raft_commit_index", "node", node)),
		commitLatency: reg.Histogram(metrics.Label("raft_commit_latency_seconds", "node", node), nil),
		proposeBatch:  reg.Histogram(metrics.Label("raft_propose_batch_size", "node", node), countBuckets),
		appendEntries: reg.Histogram(metrics.Label("raft_append_entries_per_message", "node", node), countBuckets),
		inflightDepth: reg.Histogram(metrics.Label("raft_append_inflight_window", "node", node), countBuckets),
		storageFlush:  reg.Counter(metrics.Label("raft_storage_flushes_total", "node", node)),
		storageRecs:   reg.Counter(metrics.Label("raft_storage_records_total", "node", node)),
		readsByMode: map[string]*metrics.Counter{
			"lease":     reg.Counter(metrics.Label("raft_reads_served_total", "node", node, "mode", "lease")),
			"readindex": reg.Counter(metrics.Label("raft_reads_served_total", "node", node, "mode", "readindex")),
			"stale":     reg.Counter(metrics.Label("raft_reads_served_total", "node", node, "mode", "stale")),
		},
		readRounds:     reg.Counter(metrics.Label("raft_read_rounds_total", "node", node)),
		readBatch:      reg.Histogram(metrics.Label("raft_read_batch_size", "node", node), countBuckets),
		readLatency:    reg.Histogram(metrics.Label("raft_read_latency_seconds", "node", node), nil),
		readsForwarded: reg.Counter(metrics.Label("raft_reads_forwarded_total", "node", node)),
		leaseHolds:     reg.Counter(metrics.Label("raft_lease_holds_total", "node", node)),
		leaseExpiries:  reg.Counter(metrics.Label("raft_lease_expiries_total", "node", node)),
		leaseInvalid:   reg.Counter(metrics.Label("raft_lease_invalidations_total", "node", node)),
		persistDepth:   reg.Gauge(metrics.Label("raft_pipeline_persist_queue_depth", "node", node)),
		applyDepth:     reg.Gauge(metrics.Label("raft_pipeline_apply_queue_depth", "node", node)),
		commitOverlap:  reg.Counter(metrics.Label("raft_pipeline_commit_before_fsync_total", "node", node)),
		commitInOrder:  reg.Counter(metrics.Label("raft_pipeline_fsync_before_commit_total", "node", node)),
		selfAckLag:     reg.Histogram(metrics.Label("raft_pipeline_selfack_lag_entries", "node", node), countBuckets),
		repliesFree:    reg.Counter(metrics.Label("raft_append_replies_total", "node", node, "fence", "none")),
		repliesFenced:  reg.Counter(metrics.Label("raft_append_replies_total", "node", node, "fence", "persist")),
		loopWakes:      reg.Counter(metrics.Label("raft_loop_wakes_total", "node", node)),
		pending:        make(map[int]time.Time),
	}
	for k, kind := range [...]string{"proposal", "read", "message", "persist_done", "status"} {
		m.loopInputs[k] = reg.Counter(metrics.Label("raft_loop_inputs_total", "node", node, "kind", kind))
	}
	return m
}

// onLoopPass counts one wake of the main loop and what its pass handled:
// proposals, reads, messages, persist completions, Status requests.
func (m *nodeMetrics) onLoopPass(inputs [5]int) {
	if !m.enabled {
		return
	}
	m.loopWakes.Inc(m.node)
	for k, n := range inputs {
		m.loopInputs[k].Add(m.node, int64(n))
	}
}

// countBuckets are power-of-two "counts disguised as durations" bounds
// for the batch-size and window-depth histograms.
var countBuckets = []time.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256}

func (m *nodeMetrics) onTermChange(term int) {
	if !m.enabled {
		return
	}
	m.termChanges.Inc(m.node)
	m.term.Set(int64(term))
}

func (m *nodeMetrics) onElection() {
	if m.enabled {
		m.elections.Inc(m.node)
	}
}

func (m *nodeMetrics) onElectionWon() {
	if m.enabled {
		m.electionsWon.Inc(m.node)
	}
}

func (m *nodeMetrics) onHeartbeat() {
	if m.enabled {
		m.heartbeats.Inc(m.node)
	}
}

func (m *nodeMetrics) onAppendLocal(index int) {
	if !m.enabled {
		return
	}
	m.appends.Inc(m.node)
	m.pending[index] = time.Now()
}

func (m *nodeMetrics) onCommit(old, index int) {
	if !m.enabled {
		return
	}
	m.committed.Add(m.node, int64(index-old))
	m.commitIndex.Set(int64(index))
	now := time.Now()
	for i := old + 1; i <= index; i++ {
		if t0, ok := m.pending[i]; ok {
			m.commitLatency.Observe(m.node, now.Sub(t0))
			delete(m.pending, i)
		}
	}
}

func (m *nodeMetrics) onProposeBatch(n int) {
	if m.enabled {
		m.proposeBatch.Observe(m.node, time.Duration(n))
	}
}

func (m *nodeMetrics) onAppendSend(entries, inflight int) {
	if m.enabled {
		m.appendEntries.Observe(m.node, time.Duration(entries))
		m.inflightDepth.Observe(m.node, time.Duration(inflight))
	}
}

func (m *nodeMetrics) onStorageFlush(records int) {
	if m.enabled {
		m.storageFlush.Inc(m.node)
		m.storageRecs.Add(m.node, int64(records))
	}
}

func (m *nodeMetrics) onApply() {
	if m.enabled {
		m.applied.Inc(m.node)
	}
}

func (m *nodeMetrics) onSnapshot() {
	if m.enabled {
		m.snapshots.Inc(m.node)
	}
}

// onReadServed records one read as it returns to its caller
// (ReadIndexMode), labeled by the path that served it, with its latency
// measured from the call (metrics.ObserveSince — the disabled path skips
// the clock read entirely).
func (m *nodeMetrics) onReadServed(mode string, t0 time.Time) {
	if !m.enabled {
		return
	}
	if c, ok := m.readsByMode[mode]; ok {
		c.Inc(m.node)
	}
	m.readLatency.ObserveSince(m.node, t0)
}

// onReadRound records one confirmed leadership round and how many reads
// it coalesced.
func (m *nodeMetrics) onReadRound(waiters int) {
	if !m.enabled {
		return
	}
	m.readRounds.Inc(m.node)
	m.readBatch.Observe(m.node, time.Duration(waiters))
}

func (m *nodeMetrics) onReadForwarded() {
	if m.enabled {
		m.readsForwarded.Inc(m.node)
	}
}

// onLeaseHold counts a lease renewal (a confirmed round pushing the
// expiry forward).
func (m *nodeMetrics) onLeaseHold() {
	if m.enabled {
		m.leaseHolds.Inc(m.node)
	}
}

// onLeaseExpired counts a lease-mode read that found the lease lapsed
// and fell back to a ReadIndex round.
func (m *nodeMetrics) onLeaseExpired() {
	if m.enabled {
		m.leaseExpiries.Inc(m.node)
	}
}

// onLeaseInvalidated counts a still-valid lease cut short by losing
// leadership.
func (m *nodeMetrics) onLeaseInvalidated() {
	if m.enabled {
		m.leaseInvalid.Inc(m.node)
	}
}

// onPersistDepth samples the persist-queue depth after an enqueue or a
// completion. Called only from the main loop.
func (m *nodeMetrics) onPersistDepth(depth int) {
	if m.enabled {
		m.persistDepth.Set(int64(depth))
	}
}

// onApplyDepth samples the apply-queue depth after an enqueue. Called
// only from the main loop (the worker-side drain is not sampled; the
// gauge tracks the high-water side, which is what backpressure tuning
// needs).
func (m *nodeMetrics) onApplyDepth(depth int) {
	if m.enabled {
		m.applyDepth.Set(int64(depth))
	}
}

// onCommitOverlap classifies a leader-side commit advance: commitFirst
// means the quorum formed from follower acks while the leader's own
// fsync was still in flight — the case the pipelined write path exists
// for. The two counters together give the overlap ratio.
func (m *nodeMetrics) onCommitOverlap(commitFirst bool) {
	if !m.enabled {
		return
	}
	if commitFirst {
		m.commitOverlap.Inc(m.node)
	} else {
		m.commitInOrder.Inc(m.node)
	}
}

// onSend counts a message as it leaves (transmit, after the fold):
// fenced says a persist run released it. Only AppendEntriesReply has a
// counter (a label, not a fencing rule — the rule is the message's claim).
func (m *nodeMetrics) onSend(payload any, fenced bool) {
	if !m.enabled {
		return
	}
	if _, ok := payload.(AppendEntriesReply); !ok {
		return
	}
	if fenced {
		m.repliesFenced.Inc(m.node)
	} else {
		m.repliesFree.Inc(m.node)
	}
}

// onSelfAckLag records commitIndex − durableIndex when a leader fsync
// batch lands: how many committed entries the leader had not yet
// persisted itself. Negative lag (disk ahead of quorum) clamps to 0.
func (m *nodeMetrics) onSelfAckLag(lag int) {
	if !m.enabled {
		return
	}
	if lag < 0 {
		lag = 0
	}
	m.selfAckLag.Observe(m.node, time.Duration(lag))
}

// dropPending abandons attribution for in-flight entries, called when
// the node loses leadership: a later leader may still commit them, but
// the latency would mix two reigns.
func (m *nodeMetrics) dropPending() {
	if m.enabled && len(m.pending) > 0 {
		m.pending = make(map[int]time.Time)
	}
}
