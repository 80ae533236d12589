package bench

import (
	"fmt"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/raft"
)

// RunE14 measures the batched-and-pipelined replication path end to end:
// committed ops/sec and client latency under a closed-loop load, swept
// over storage backend and client count, on one shard.Cluster group
// (RunMultiShard with Shards: 1). The file-storage rows are the ones
// group-commit fsync amortization exists for: fsyncs_per_op falling well
// below 1 is the direct signature of batching at the durability barrier.
func RunE14(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E14",
		Title: "Raft closed-loop throughput: proposal coalescing + group commit + pipelining",
		Columns: []string{"storage", "clients", "trials", "ops", "ops_per_sec",
			"p50_ms", "p99_ms", "fsyncs_per_op", "allocs_per_op"},
	}
	clientCounts := []int{1, 8, 32}
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound: each trial runs a real-time window
	}
	if s.Quick {
		clientCounts = []int{8}
		duration = 200 * time.Millisecond
		trials = 1
	}
	for _, storage := range []string{"mem", "file"} {
		for _, clients := range clientCounts {
			reg := s.cellRegistry()
			var opsPerSec, p50, p99, fsyncsPerOp, allocsPerOp stats
			ops := 0
			for trial := 0; trial < trials; trial++ {
				res, err := RunMultiShard(MultiShardConfig{
					Nodes:           3,
					Shards:          1,
					ClientsPerShard: clients,
					Duration:        duration,
					Seed:            s.BaseSeed + uint64(clients*10+trial),
					FileStorage:     storage == "file",
					Metrics:         reg,
					ShardMetrics:    oneRegistry(reg),
				})
				if err != nil {
					return tbl, fmt.Errorf("E14 %s/%d: %w", storage, clients, err)
				}
				ops += res.Ops
				opsPerSec.add(res.OpsPerSec)
				p50.add(res.P50.Seconds() * 1000)
				p99.add(res.P99.Seconds() * 1000)
				fsyncsPerOp.add(res.FsyncsPerOp)
				allocsPerOp.add(res.AllocsPerOp)
			}
			tbl.AddRow(storage, clients, trials, ops, opsPerSec.mean(),
				p50.mean(), p99.mean(), fsyncsPerOp.mean(), allocsPerOp.mean())
			if s.CollectMetrics {
				tbl.attachMetrics(fmt.Sprintf("storage=%s clients=%d", storage, clients), reg.Snapshot())
			}
		}
	}
	tbl.Notes = append(tbl.Notes,
		"one shard.Cluster group over 3 nodes, the builder the ledger runs: traffic through each node's mux, one SyncCoalescer per node",
		"closed loop: each client submits, waits for commit+apply, then submits again — ops/sec counts applied writes",
		"fsyncs_per_op < 1 on file rows is group commit working: one durability barrier covers many coalesced proposals",
		"allocs_per_op is process-wide Mallocs delta / ops, an approximation shared across nodes and clients")
	return tbl, nil
}

// oneRegistry hands every shard the cell's registry, so a one-group
// run's raft_* metrics land beside the cluster-level ones.
func oneRegistry(reg *metrics.Registry) func(int) *metrics.Registry {
	return func(int) *metrics.Registry { return reg }
}

// e15Modes are the read paths E15 compares.
var e15Modes = []raft.ReadConsistency{raft.ReadLinearizable, raft.ReadLease, raft.ReadStale}

// RunE15 measures the linearizable read fast path end to end: a 90/10
// read/write closed loop on file storage and one shard.Cluster group,
// swept over the serving mode. The ReadIndex row serves each coalesced
// batch of reads with one piggybacked heartbeat round; the lease row
// removes even that round while the lease holds; the stale row is the
// uncoordinated floor.
func RunE15(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E15",
		Title: "Raft linearizable reads: ReadIndex vs lease vs stale (90/10 mix, file storage)",
		Columns: []string{"mode", "clients", "trials", "ops", "ops_per_sec",
			"read_p50_ms", "read_p99_ms", "write_p99_ms", "fsyncs_per_op",
			"lease_reads", "index_reads", "stale_reads", "forwarded"},
	}
	clients := 8
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound, like E14
	}
	if s.Quick {
		duration = 200 * time.Millisecond
		trials = 1
	}
	for _, mode := range e15Modes {
		reg := s.cellRegistry()
		var opsPerSec, rp50, rp99, wp99, fsyncsPerOp stats
		ops := 0
		var lease, index, stale, fwd int64
		for trial := 0; trial < trials; trial++ {
			cfg := MultiShardConfig{
				Nodes:           3,
				Shards:          1,
				ClientsPerShard: clients,
				Duration:        duration,
				Seed:            s.BaseSeed + uint64(int(mode)*10+trial),
				FileStorage:     true,
				Metrics:         reg,
				ShardMetrics:    oneRegistry(reg),
				ReadRatio:       0.9,
				ReadMode:        mode,
				Keys:            256,
			}
			if mode == raft.ReadLease {
				cfg.LeaseDuration = benchElection / 2
			}
			res, err := RunMultiShard(cfg)
			if err != nil {
				return tbl, fmt.Errorf("E15 %v: %w", mode, err)
			}
			ops += res.Ops
			opsPerSec.add(res.OpsPerSec)
			rp50.add(res.ReadP50.Seconds() * 1000)
			rp99.add(res.ReadP99.Seconds() * 1000)
			wp99.add(res.P99.Seconds() * 1000)
			fsyncsPerOp.add(res.FsyncsPerOp)
			lease += res.LeaseReads
			index += res.IndexReads
			stale += res.StaleReads
			fwd += res.ForwardedReads
		}
		tbl.AddRow(mode.String(), clients, trials, ops, opsPerSec.mean(),
			rp50.mean(), rp99.mean(), wp99.mean(), fsyncsPerOp.mean(),
			lease, index, stale, fwd)
		if s.CollectMetrics {
			tbl.attachMetrics(fmt.Sprintf("mode=%v", mode), reg.Snapshot())
		}
	}
	tbl.Notes = append(tbl.Notes,
		"90/10 read/write closed loop, 3 nodes, file storage — ops/sec counts completed client ops of both kinds",
		"readindex rows serve reads without touching storage",
		"lease rows skip the confirmation round while the lease holds: read_p50 drops below the readindex row's",
		"the per-path columns come from raft.ReadStats and attribute each read to the mechanism that served it")
	return tbl, nil
}
