package main

// metricDef names one reported number. BENCHMARK.json repeats name, unit
// and better (spec_test.go holds the two in step); stat says how the
// samples of a run are reduced to the value, and moves — for a per-layer
// metric — which end-to-end metric a change in it should move, and on
// which workload.
type metricDef struct {
	name, unit, better string
	stat               string
	moves              string
}

const (
	statSlices = "midmean over the window's 1 s slices of "
	statScaled = ", scaled to the nominal host by the run's yardstick readings"
	statT      = "traced part of each segment: "
	statU      = "untraced part of each segment: "
	statM      = "microbench, median of 5 fixed-count batches: "
)

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", statSlices + "ops completed in the slice" + statScaled + " (an open loop's offered rate is not scaled)", ""},
	{"lat_p50_ms", "ms", "lower", statSlices + "the slice's p50 of invoke (closed loop) or due time (open loop) → reply" + statScaled, ""},
	{"setup_s", "s", "lower", "median of the run's 40 cluster set-ups (8 per segment): listen, WAL open + Load, election, first write acknowledged on every group" + statScaled, ""},
}

var perLayer = []metricDef{
	{"client.queue_us", "us", "lower", statT + "mean over sampled writes of invoke → start of the leader AppendBatch holding the op", "lat_p50_ms, client.lat_p90_ms on open-tcp, write-tcp"},
	{"client.reply_us", "us", "lower", statT + "mean over sampled writes of end of leader Apply → return to the caller", "lat_p50_ms, client.lat_p90_ms on open-tcp, write-tcp"},
	{"client.lat_p90_ms", "ms", "lower", statU + statSlices + "the slice's p90 of invoke or due time → reply, all ops, as measured", "lat_p50_ms everywhere: where queueing shows first"},
	{"client.lat_p99_ms", "ms", "lower", statU + statSlices + "the slice's p99 of the same latency", "lat_p50_ms everywhere: the tail beyond what is gated"},
	{"client.write_p99_ms", "ms", "lower", statU + statSlices + "the slice's p99 over writes only", "lat_p50_ms everywhere; differs from client.lat_p99_ms only on readmix-tcp"},
	{"client.over_10ms_frac", "frac", "lower", statU + "ops slower than 10 ms / ops", "client.lat_p90_ms, client.lat_p99_ms on open-tcp, write-tcp"},

	{"shard.route_ns", "ns", "lower", statM + "Descriptor.ShardOf on a 4-shard map", "proc.cpu_us_per_op on shards-tcp; flat elsewhere"},

	{"raft.entries_per_append", "count", "higher", statT + "entries / entry-carrying AppendEntries the leaders sent (proposal batch size)", "ops_per_s on write-tcp, mem-sim"},
	{"raft.msgs_per_op", "count", "lower", statT + "Send + Broadcast calls at the endpoints / ops", "proc.cpu_us_per_op on mem-sim, write-tcp"},
	{"raft.replicate_us", "us", "lower", statT + "mean over sampled writes of leader AppendBatch start → leader Apply start (fsync ∥ follower round trip)", "lat_p50_ms on open-tcp, write-tcp"},
	{"raft.follower_lag_p50", "count", "lower", statT + "median of 10 Hz samples of leader commit − slowest follower applied, worst shard", "client.lat_p99_ms on write-tcp (margin, not latency)"},
	{"raft.leader_changes", "count", "lower", "growth of the groups' highest term over a segment's window, summed over the segments that were discarded and measured again for it; 0 in every segment that counts", "every metric: a window with an election measures a different object"},
	{"raft.single_node_commit_us", "us", "lower", statM + "one Put on a 1-node group over netsim without storage", "ops_per_s, proc.cpu_us_per_op on mem-sim; lat_p50_ms on open-tcp"},

	{"storage.fsyncs_per_op", "count", "lower", statU + "FileStorage.Syncs over all replicas / ops", "ops_per_s on write-tcp; lat_p50_ms on open-tcp; flat on mem-sim"},
	{"storage.appends_per_op", "count", "lower", statT + "AppendBatch + TruncateAndAppend + SetState calls over all replicas / ops", "ops_per_s on write-tcp; flat on mem-sim"},
	{"storage.append_busy_us_per_op", "us", "lower", statT + "time inside those calls over all replicas / ops", "ops_per_s on write-tcp; lat_p50_ms on open-tcp; flat on mem-sim"},
	{"storage.wal_bytes_per_op", "B", "lower", "every segment: WAL file sizes over all replicas / ops completed", "proc.cpu_us_per_op on write-tcp; flat on mem-sim"},
	{"storage.reload_ms", "ms", "lower", "after each segment: fresh OpenFileStorage + Load of node 0's WALs, summed", "setup_s after a restart (ROADMAP item 3)"},
	{"storage.reload_us_per_kentry", "us", "lower", "the same reload per thousand entries loaded", "setup_s after a restart (ROADMAP item 3)"},
	{"storage.append1_us", "us", "lower", statM + "one AppendBatch of 1 entry, fsync included", "lat_p50_ms on open-tcp; flat on mem-sim"},
	{"storage.append64_us", "us", "lower", statM + "one AppendBatch of 64 entries, fsync included", "ops_per_s on write-tcp; flat on mem-sim"},

	{"syncer.requests_per_op", "count", "lower", statU + "SyncCoalescer.Requests over all nodes / ops", "ops_per_s on shards-tcp, write-tcp"},
	{"syncer.barriers_per_op", "count", "lower", statU + "SyncCoalescer.Barriers over all nodes / ops", "ops_per_s, lat_p50_ms on shards-tcp"},
	{"syncer.mean_width", "count", "higher", statU + "requests / barriers", "ops_per_s, lat_p50_ms on shards-tcp; stays 1 on write-tcp"},
	{"syncer.sync_ns_1way", "ns", "lower", statM + "Sync of a freshly dirtied file, one caller", "lat_p50_ms on write-tcp, open-tcp"},
	{"syncer.sync_ns_4way", "ns", "lower", statM + "the same with four concurrent callers, per call as a caller sees it", "ops_per_s, lat_p50_ms on shards-tcp"},

	{"mux.route_ns", "ns", "lower", statM + "tagged Send → peer channel Recv over netsim", "proc.cpu_us_per_op on shards-tcp"},
	{"mux.msgs_per_op", "count", "lower", statT + "messages the endpoints delivered up to the muxes / ops", "proc.cpu_us_per_op on shards-tcp"},

	{"transport.send_busy_us_per_op", "us", "lower", statT + "time callers (the Raft main loops) spend inside endpoint Send/Broadcast / ops; on mem-sim the endpoint is netsim", "lat_p50_ms on every *-tcp workload"},
	{"transport.bytes_per_op", "B", "lower", statT + "transport.WithMetrics encode bytes / ops", "proc.cpu_us_per_op on *-tcp; 0 on mem-sim"},
	{"transport.send_errors", "count", "lower", statT + "errors returned by endpoint Send/Broadcast", "failed ops on *-tcp"},
	{"transport.rtt_us", "us", "lower", statM + "loopback Send → peer Recv → reply → Recv", "lat_p50_ms on every *-tcp workload; read.p99_ms on readmix-tcp; flat on mem-sim"},

	{"codec.encode_ns_per_entry", "ns", "lower", statM + "codec.Append of a 16-entry AppendEntries / 16", "proc.cpu_us_per_op on write-tcp; flat on mem-sim"},
	{"codec.decode_ns_per_entry", "ns", "lower", statM + "Decoder.Decode of that frame / 16", "proc.cpu_us_per_op on write-tcp; flat on mem-sim"},
	{"codec.encode_allocs", "count", "lower", statM + "heap allocations per codec.Append of that message", "proc.cpu_us_per_op on write-tcp"},
	{"codec.decode_allocs", "count", "lower", statM + "heap allocations per Decode of that frame", "proc.cpu_us_per_op on write-tcp"},
	{"codec.bytes_per_entry", "B", "lower", "length of that frame / 16", "transport.bytes_per_op, storage.wal_bytes_per_op"},

	{"apply.busy_us_per_op", "us", "lower", statT + "time inside KVStore.Apply over all replicas / ops", "proc.cpu_us_per_op on mem-sim"},
	{"apply.calls_per_op", "count", "lower", statT + "Apply calls over all replicas / ops", "proc.cpu_us_per_op on mem-sim"},
	{"apply.ns_per_op", "ns", "lower", statM + "KVStore.Apply of a set", "proc.cpu_us_per_op on mem-sim"},

	{"read.index_frac", "frac", "higher", statU + "reads served by a ReadIndex round / reads served", "ops_per_s on readmix-tcp"},
	{"read.lease_frac", "frac", "higher", statU + "reads served from a lease / reads served (leases are off by default)", "ops_per_s on readmix-tcp"},
	{"read.forwarded_frac", "frac", "lower", statU + "reads a follower forwarded to the leader / reads served", "lat_p50_ms on readmix-tcp"},
	{"read.p99_ms", "ms", "lower", statU + statSlices + "the slice's p99 over reads only", "lat_p50_ms, ops_per_s on readmix-tcp; 0 elsewhere"},

	{"netsim.msgs_per_op", "count", "lower", statT + "netsim sends / ops", "proc.cpu_us_per_op on mem-sim; 0 on *-tcp"},

	{"proc.cpu_us_per_op", "us", "lower", statU + statSlices + "process user+sys CPU (getrusage) / ops completed, replicas and generator together", "ops_per_s on mem-sim (CPU-bound); the cost that still moves where latency is fsync-bound"},
	{"proc.allocs_per_op", "count", "lower", statU + "heap allocations in the process / ops", "proc.cpu_us_per_op everywhere; ops_per_s on mem-sim"},
	{"proc.alloc_bytes_per_op", "B", "lower", statU + "heap bytes allocated / ops", "proc.cpu_us_per_op everywhere; ops_per_s on mem-sim; client.lat_p99_ms through GC"},
	{"proc.gc_cpu_frac", "frac", "lower", statU + "GC CPU seconds / process CPU seconds", "proc.cpu_us_per_op everywhere; ops_per_s on mem-sim; client.lat_p99_ms through GC"},
	{"proc.peak_rss_mb", "MB", "lower", "peak resident set when the last window ends", "none; a memory regression shows here first"},

	{"gen.late_p99_ms", "ms", "lower", statU + "p99 of how long after its due time an open-loop op was issued (0 on closed loops)", "none; the generator's own lateness, to subtract from open-tcp latency"},
	{"gen.max_inflight", "count", "lower", "most open-loop ops due but unfinished at once, worst segment", "client.lat_p99_ms on open-tcp"},
	{"gen.backlog_end", "count", "lower", "open-loop ops due but unfinished when a window ended, worst segment", "ops_per_s on open-tcp"},
	{"gen.trace_overhead_frac", "frac", "lower", "1 − traced parts' ops/s / untraced parts' ops/s", "none; what the wrappers cost"},
}
