package raft

import (
	"strconv"
	"time"

	"ooc/internal/metrics"
)

// nodeMetrics is the node's telemetry bundle: one instrument per fact,
// which each site calls directly. A nil registry yields nil instruments,
// which discard, except the four read counters ReadStats returns. Only
// the main loop touches the pending-commit map; the instruments are
// atomic and are also written off the loop — applies on the apply
// worker, read answers on the reading caller's goroutine.
type nodeMetrics struct {
	enabled bool // a registry is attached
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
	// their own family): reads served by path, counted as they return to
	// their caller; reads this follower forwarded; the coalescing width
	// of confirmation rounds; request→reply latency; and the lease
	// lifecycle (renewals, lapses under load, step-down invalidations).
	reads          [3]*metrics.Counter // by readPaths index; never nil
	readsForwarded *metrics.Counter    // never nil
	readRounds     *metrics.Counter
	readBatch      *metrics.Histogram // waiters per confirmed round
	readLatency    *metrics.Histogram
	leaseHolds     *metrics.Counter
	leaseExpiries  *metrics.Counter
	leaseInvalid   *metrics.Counter

	// Commit-pipeline instruments. Queue depths are gauges the main loop
	// samples (the apply worker's drain is not: the gauge tracks the
	// high-water side); the overlap counters split commits on a leader by
	// whether the quorum formed before the leader's own fsync landed (the
	// pipelined win) or after; self-ack lag is commitIndex − durableIndex
	// as the leader's fsync completes, how far the followers ran ahead.
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

// readPaths name the paths a read is served by, in nodeMetrics.reads'
// order: a held lease, a confirmed ReadIndex round, the local state
// machine with no coordination.
var readPaths = [...]string{"lease", "readindex", "stale"}

const (
	servedLease = iota
	servedIndex
	servedStale
)

func newNodeMetrics(reg *metrics.Registry, id int) *nodeMetrics {
	if reg == nil {
		m := &nodeMetrics{node: id, readsForwarded: new(metrics.Counter)}
		for p := range m.reads {
			m.reads[p] = new(metrics.Counter)
		}
		return m
	}
	node := strconv.Itoa(id)
	m := &nodeMetrics{
		enabled:        true,
		node:           id,
		termChanges:    reg.Counter(metrics.Label("raft_term_changes_total", "node", node)),
		elections:      reg.Counter(metrics.Label("raft_elections_started_total", "node", node)),
		electionsWon:   reg.Counter(metrics.Label("raft_elections_won_total", "node", node)),
		heartbeats:     reg.Counter(metrics.Label("raft_heartbeats_total", "node", node)),
		appends:        reg.Counter(metrics.Label("raft_entries_appended_total", "node", node)),
		committed:      reg.Counter(metrics.Label("raft_entries_committed_total", "node", node)),
		applied:        reg.Counter(metrics.Label("raft_entries_applied_total", "node", node)),
		snapshots:      reg.Counter(metrics.Label("raft_snapshots_total", "node", node)),
		term:           reg.Gauge(metrics.Label("raft_current_term", "node", node)),
		commitIndex:    reg.Gauge(metrics.Label("raft_commit_index", "node", node)),
		commitLatency:  reg.Histogram(metrics.Label("raft_commit_latency_seconds", "node", node), nil),
		proposeBatch:   reg.Histogram(metrics.Label("raft_propose_batch_size", "node", node), countBuckets),
		appendEntries:  reg.Histogram(metrics.Label("raft_append_entries_per_message", "node", node), countBuckets),
		inflightDepth:  reg.Histogram(metrics.Label("raft_append_inflight_window", "node", node), countBuckets),
		storageFlush:   reg.Counter(metrics.Label("raft_storage_flushes_total", "node", node)),
		storageRecs:    reg.Counter(metrics.Label("raft_storage_records_total", "node", node)),
		readsForwarded: reg.Counter(metrics.Label("raft_reads_forwarded_total", "node", node)),
		readRounds:     reg.Counter(metrics.Label("raft_read_rounds_total", "node", node)),
		readBatch:      reg.Histogram(metrics.Label("raft_read_batch_size", "node", node), countBuckets),
		readLatency:    reg.Histogram(metrics.Label("raft_read_latency_seconds", "node", node), nil),
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
	for p, path := range readPaths {
		m.reads[p] = reg.Counter(metrics.Label("raft_reads_served_total", "node", node, "mode", path))
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

// onAppendLocal counts a leader-appended entry and stamps it for the
// commit-latency histogram.
func (m *nodeMetrics) onAppendLocal(index int) {
	if !m.enabled {
		return
	}
	m.appends.Inc(m.node)
	m.pending[index] = time.Now()
}

// onCommit counts the entries (old, index] committing and observes the
// latency of those this leader stamped.
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

// dropPending abandons attribution for in-flight entries, called when
// the node loses leadership: a later leader may still commit them, but
// the latency would mix two reigns.
func (m *nodeMetrics) dropPending() {
	if m.enabled && len(m.pending) > 0 {
		m.pending = make(map[int]time.Time)
	}
}
