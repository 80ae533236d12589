package bench

import (
	"fmt"
	"time"
)

// e18DeviceLatency is the modeled shared-device barrier cost in E18 —
// the same commodity-SSD-class 2ms as E16's per-replica floor, but paid
// at one raft.Disk per *node*, shared by all of the node's groups. The
// fixture difference is the whole experiment: E16's SlowDisk gives every
// replica its own device, so adding shards adds devices and the fsync
// term scales for free; E18 holds the device count at one per node, the
// deployment where per-group fsync queues actually collide.
const e18DeviceLatency = 2 * time.Millisecond

// RunE18 measures cross-group sync coalescing end to end: E16's weak-
// scaling grid (1/2/4/8 shards over 3 nodes, one pinned closed-loop
// client per shard, file storage), but with all of a node's replicas
// sharing one modeled 2ms device. The pergroup rows are the pre-PR10
// baseline — every group flush pays its own serialized barrier, so at 8
// shards a node's durability pipeline queues 8 deep and per-op latency
// inflates with the shard count. The coalesced rows run the per-node
// SyncCoalescer: concurrent group flushes park on one barrier, so
// barriers_per_op falls with mean_width, and on a filesystem that
// overwrites in place fsyncs_per_op (real fdatasync calls) falls with
// it: a round writes its files back and flushes once. speedup_vs_pergroup at
// 8 shards is the headline number (acceptance: ≥ 1.5x).
func RunE18(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E18",
		Title: "Shared-disk group commit: per-node sync coalescing vs per-group fsync, one 2ms device per node",
		Columns: []string{"shards", "mode", "trials", "ops", "ops_per_sec", "speedup_vs_pergroup",
			"p50_ms", "p99_ms", "barriers_per_op", "mean_width", "fsyncs_per_op"},
	}
	shardCounts := []int{1, 2, 4, 8}
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound, like E14/E16
	}
	if s.Quick {
		shardCounts = []int{1, 4}
		duration = 200 * time.Millisecond
		trials = 1
	}
	for _, shards := range shardCounts {
		base := 0.0
		for _, mode := range []string{"pergroup", "coalesced"} {
			reg := s.cellRegistry()
			var opsPerSec, p50, p99, barriersPerOp, meanWidth, fsyncsPerOp stats
			ops := 0
			for trial := 0; trial < trials; trial++ {
				res, err := RunMultiShard(MultiShardConfig{
					Nodes:           3,
					Shards:          shards,
					ClientsPerShard: 1,
					Duration:        duration,
					Seed:            s.BaseSeed + uint64(shards*10+trial),
					FileStorage:     true,
					DeviceLatency:   e18DeviceLatency,
					PerGroupFsync:   mode == "pergroup",
					// Wider than E16's: a per-group 8-shard node can queue
					// 8 × 2ms of barriers ahead of a replica's flush, and an
					// in-window election would read as a coalescing win.
					ElectionTimeout: 150 * time.Millisecond,
					Metrics:         reg,
				})
				if err != nil {
					return tbl, fmt.Errorf("E18 shards=%d %s: %w", shards, mode, err)
				}
				ops += res.Ops
				opsPerSec.add(res.OpsPerSec)
				p50.add(res.P50.Seconds() * 1000)
				p99.add(res.P99.Seconds() * 1000)
				barriersPerOp.add(res.BarriersPerOp)
				meanWidth.add(res.MeanWidth)
				fsyncsPerOp.add(res.FsyncsPerOp)
			}
			mean := opsPerSec.mean()
			if mode == "pergroup" {
				base = mean
			}
			speedup := 0.0
			if base > 0 {
				speedup = mean / base
			}
			tbl.AddRow(shards, mode, trials, ops, mean, speedup,
				p50.mean(), p99.mean(), barriersPerOp.mean(), meanWidth.mean(), fsyncsPerOp.mean())
			if s.CollectMetrics {
				tbl.attachMetrics(fmt.Sprintf("shards=%d mode=%s", shards, mode), reg.Snapshot())
			}
		}
	}
	tbl.Notes = append(tbl.Notes,
		"weak scaling like E16 (one pinned closed-loop client per shard), but all of a node's replicas share ONE modeled 2ms device (shard.Config.DeviceLatency → raft.Disk), not a device per replica",
		"pergroup rows: every group flush pays its own device barrier, serialized at the node's disk — the pre-coalescing baseline, same binary (raftkv -sync-coalesce=false)",
		"coalesced rows: one raft.SyncCoalescer per node parks concurrent group flushes on a shared barrier; barriers_per_op is the node-wide device-flush count per committed op, the number coalescing reduces",
		"mean_width = sync requests / barriers paid: how many group flushes the average barrier covered",
		"fsyncs_per_op counts real fdatasync calls underneath the modeled barrier: one per flush on pergroup rows; on coalesced rows one per round where the filesystem overwrites in place (the round writes its files back, then flushes once), one per flush elsewhere",
		"speedup_vs_pergroup compares the two modes at equal shard count; the 1-shard rows are the degenerate case the zero-overhead gate holds to parity")
	return tbl, nil
}
