package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// MultiShardConfig parameterizes one closed-loop multi-Raft throughput
// run: Shards independent groups over Nodes processors, driven by
// ClientsPerShard×Shards concurrent closed-loop clients routing a
// shared-family KVMix through the shard router for Duration. Client
// count scales with the shard count (weak scaling): the question E16
// asks is how much more committed work the same machine sustains when
// the keyspace — and with it the leader fsync pipelines — is split.
type MultiShardConfig struct {
	Nodes           int
	Shards          int
	ClientsPerShard int
	Duration        time.Duration
	Seed            uint64
	// FileStorage gives every (node, shard) replica its own on-disk log
	// in a temp dir — the configuration where sharding pays, because
	// independent leaders run independent group-commit pipelines.
	// Otherwise every replica persists to a raft.MemStorage.
	FileStorage bool
	// ElectionTimeout overrides the bench default; the heartbeat is
	// always benchHeartbeat. Slow modeled disks need a wider election
	// timeout: every barrier stalls a node's loop for the device latency,
	// and an in-window election is a multi-heartbeat throughput hole that
	// reads as a scaling loss.
	ElectionTimeout time.Duration
	// Metrics, if non-nil, receives the cluster-level telemetry (leader
	// placement, per-shard routed ops, mux drops).
	Metrics *metrics.Registry
	// ShardMetrics, if non-nil, supplies a registry per shard for group
	// internals, passed through to shard.Config.
	ShardMetrics func(shard int) *metrics.Registry
	// Workload shape: ReadRatio > 0 mixes reads (served per shard via
	// ReadMode) into the loop; Keys sizes the shared, uniformly drawn
	// keyspace (default 1024).
	ReadRatio     float64
	ReadMode      raft.ReadConsistency
	LeaseDuration time.Duration
	Keys          int
	// Tracer/Flights thread per-request tracing and flight recording
	// through the cluster (shard.Config.Tracer / shard.Config.Flights).
	Tracer  *rtrace.Tracer
	Flights []*rtrace.Flight
	// DeviceLatency, when > 0, models each node's *shared* storage
	// device (shard.Config.DeviceLatency → one raft.Disk per node):
	// every durability barrier from any of the node's groups pays this
	// latency, and concurrent barriers serialize — pinning the device
	// term of the latency equation to a known constant instead of
	// whatever the host's disk felt like this minute. The node-wide
	// syncer coalesces its groups' flushes onto those barriers.
	DeviceLatency time.Duration
	// Recorder, when set, captures the run's protocol trace: mux-tagged
	// message events from the simulated network plus per-flush fsync
	// notes from every replica's storage (shard.Config.Recorder), the
	// input behind ooctrace's fsyncs/width channel columns.
	Recorder *trace.Recorder
}

// MultiShardResult is one run's outcome.
type MultiShardResult struct {
	Shards      int
	Clients     int           // total concurrent closed-loop clients
	Ops         int           // completed client ops (reads + writes)
	OpsPerSec   float64       // Ops / wall-clock elapsed
	P50         time.Duration // client-observed op latency
	P99         time.Duration
	Fsyncs      int64   // total fdatasync calls across all replicas' files (file storage only)
	FsyncsPerOp float64 // Fsyncs / Ops
	AllocsPerOp float64 // process-wide heap allocations per op (approximate)
	// Read/write split of Ops, and the client-observed read latency.
	Reads   int
	Writes  int
	ReadP50 time.Duration
	ReadP99 time.Duration
	// Per-path serving counts summed over every replica (raft.ReadStats).
	LeaseReads, IndexReads, StaleReads, ForwardedReads int64
	// Device-barrier accounting from the per-node sync coalescers (file
	// storage only). Barriers is the number of device flushes actually
	// paid across the cluster — the rounds coalescing folds flushes
	// into; Fsyncs follows it down where a round can write its files back
	// and flush once (raft.SyncCoalescer). MeanWidth is
	// how many group flushes the average barrier covered (Requests /
	// Barriers; 1.0 when nothing coalesced).
	Barriers      int64
	BarriersPerOp float64
	MeanWidth     float64
	PerShardOps   []int // completed ops attributed to each shard
	// Leader placement at window end: which node led each shard, how
	// many distinct nodes led at least one, and how many rebalance
	// campaigns the placement watcher issued.
	LeaderPlacement []int
	LeaderSpread    int
	Rebalances      int
	// KeyImbalance is the router self-check (max/mean keys per shard
	// over the workload's key table) — near 1.0 means the throughput
	// numbers measure sharding, not an accidental hot shard.
	KeyImbalance float64
}

// RunMultiShard runs one closed-loop trial on a shard.Cluster. It is the
// engine behind experiments E14–E16, their Benchmark* wrappers, and
// `raftkv -bench`; E14 and E15 run it with Shards: 1.
func RunMultiShard(cfg MultiShardConfig) (MultiShardResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.ClientsPerShard <= 0 {
		cfg.ClientsPerShard = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1024
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = benchElection
	}
	var dir string
	if cfg.FileStorage {
		d, err := os.MkdirTemp("", "ooc-multishard-bench-*")
		if err != nil {
			return MultiShardResult{}, err
		}
		defer func() { _ = os.RemoveAll(d) }()
		dir = d
	}

	nw := netsim.New(cfg.Nodes, netsim.WithSeed(cfg.Seed), netsim.WithRecorder(cfg.Recorder))
	rng := sim.NewRNG(cfg.Seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	eps := make([]msgnet.Endpoint, cfg.Nodes)
	for i := range eps {
		eps[i] = nw.Node(i)
	}
	var (
		filesMu sync.Mutex
		files   []*raft.FileStorage
	)
	storage := func(int, int) (raft.Storage, error) { return raft.NewMemStorage(), nil }
	if cfg.FileStorage {
		storage = func(node, s int) (raft.Storage, error) {
			fs, err := raft.OpenFileStorage(filepath.Join(dir, fmt.Sprintf("node-%d-shard-%d.log", node, s)))
			if err != nil {
				return nil, err
			}
			if _, err := fs.Load(); err != nil {
				_ = fs.Close()
				return nil, err
			}
			filesMu.Lock()
			files = append(files, fs)
			filesMu.Unlock()
			return fs, nil
		}
	}
	cluster, err := shard.NewCluster(shard.Config{
		Endpoints:         eps,
		Shards:            cfg.Shards,
		RNG:               rng,
		ElectionTimeout:   cfg.ElectionTimeout,
		HeartbeatInterval: benchHeartbeat,
		LeaseDuration:     cfg.LeaseDuration,
		ReadMode:          cfg.ReadMode,
		Tracer:            cfg.Tracer,
		Flights:           cfg.Flights,
		Storage:           storage,
		Metrics:           cfg.Metrics,
		ShardMetrics:      cfg.ShardMetrics,
		DeviceLatency:     cfg.DeviceLatency,
		Recorder:          cfg.Recorder,
	})
	if err != nil {
		return MultiShardResult{}, err
	}
	// Files close only after every started node has fully stopped: the
	// persist workers write until their Done() fires.
	defer func() {
		cancel()
		cluster.Wait()
		filesMu.Lock()
		defer filesMu.Unlock()
		for _, fs := range files {
			_ = fs.Close()
		}
	}()
	if err := cluster.Start(ctx); err != nil {
		return MultiShardResult{}, err
	}

	// The shared workload family: one key table and CDF across the whole
	// client grid, plus the router self-check before any number is
	// trusted.
	fam, err := workload.NewKVMixFamily(workload.KVMixConfig{
		ReadRatio: cfg.ReadRatio, Keys: cfg.Keys, Dist: workload.KeysUniform,
	})
	if err != nil {
		return MultiShardResult{}, err
	}
	spread, err := fam.ShardSpread(cfg.Shards, cluster.ShardOf)
	if err != nil {
		return MultiShardResult{}, err
	}
	// The per-shard grid: partition the shared key table by owning
	// group, preserving family rank order within each partition. Each
	// client is pinned to one shard and remaps its drawn rank into that
	// shard's partition; ops still travel through the router (which must
	// agree with the pin — that's the closed loop exercising the real path).
	// Pinning matters for the measurement: randomly routed closed-loop
	// clients collide (two clients landing on one group serialize behind
	// its commit pipeline while another group idles), which reads as a
	// scaling loss that isn't the system's.
	keysByShard := make([][]string, cfg.Shards)
	rank := make(map[string]int, len(fam.Keys()))
	for i, k := range fam.Keys() {
		rank[k] = i
		s := cluster.ShardOf(k)
		keysByShard[s] = append(keysByShard[s], k)
	}
	for s, ks := range keysByShard {
		if len(ks) == 0 {
			return MultiShardResult{}, fmt.Errorf("shard %d owns no workload keys (keyspace %d too small for %d shards)", s, cfg.Keys, cfg.Shards)
		}
	}

	// Warmup: elect every group's leader and commit one entry per group,
	// so the measured window holds only the replication path.
	warmCtx, warmCancel := context.WithTimeout(ctx, 10*time.Second)
	err = cluster.WaitForLeaders(warmCtx)
	if err == nil {
		for s := 0; s < cfg.Shards && err == nil; s++ {
			_, err = cluster.Group(s).Client.SubmitWait(warmCtx, raft.KVCommand{Op: "set", Key: "warmup", Value: "1"})
		}
	}
	warmCancel()
	if err != nil {
		return MultiShardResult{}, fmt.Errorf("warmup: %w", err)
	}

	var startSyncs int64
	for _, fs := range files {
		startSyncs += fs.Syncs()
	}
	var startBarriers, startRequests int64
	for n := 0; n < cfg.Nodes; n++ {
		if sc := cluster.Syncer(n); sc != nil {
			startBarriers += sc.Barriers()
			startRequests += sc.Requests()
		}
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	clients := cfg.ClientsPerShard * cfg.Shards
	runCtx, runCancel := context.WithCancel(ctx)
	lat := make([][]time.Duration, clients)
	rlat := make([][]time.Duration, clients)
	shardOps := make([][]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.AfterFunc(cfg.Duration, runCancel)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mix := fam.Instance(rng.Stream('m', uint64(c)))
			counts := make([]int, cfg.Shards)
			shardOps[c] = counts
			pin := c % cfg.Shards // clients 0..S-1 on shard 0..S-1, wrapping
			keys := keysByShard[pin]
			// Values carry the client id for global uniqueness; keys are
			// shared within a shard's partition.
			vprefix := fmt.Sprintf("c%d-", c)
			for {
				op := mix.Next()
				key := keys[rank[op.Key]%len(keys)]
				t0 := time.Now()
				if op.Read {
					if _, _, err := cluster.Get(runCtx, key); err != nil {
						return // window over
					}
					d := time.Since(t0)
					lat[c] = append(lat[c], d)
					rlat[c] = append(rlat[c], d)
					counts[pin]++
					continue
				}
				s, _, err := cluster.Put(runCtx, key, vprefix+op.Value)
				if err != nil {
					return // window over
				}
				lat[c] = append(lat[c], time.Since(t0))
				counts[s]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	timer.Stop()
	runCancel()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	res := MultiShardResult{
		Shards:          cfg.Shards,
		Clients:         clients,
		PerShardOps:     make([]int, cfg.Shards),
		LeaderPlacement: cluster.LeaderPlacement(),
		LeaderSpread:    cluster.LeaderSpread(),
		Rebalances:      cluster.RebalanceNudges(),
		KeyImbalance:    workload.SpreadImbalance(spread),
	}
	all := make([]time.Duration, 0, 1024)
	reads := make([]time.Duration, 0, 1024)
	for c := range lat {
		res.Ops += len(lat[c])
		all = append(all, lat[c]...)
		reads = append(reads, rlat[c]...)
		for s, n := range shardOps[c] {
			res.PerShardOps[s] += n
		}
	}
	res.Reads, res.Writes = len(reads), res.Ops-len(reads)
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	res.P50, res.P99 = p50p99(all)
	res.ReadP50, res.ReadP99 = p50p99(reads)
	if res.Ops > 0 {
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	}
	for s := 0; s < cfg.Shards; s++ {
		for _, nd := range cluster.Group(s).Nodes {
			lease, index, stale, fwd := nd.ReadStats()
			res.LeaseReads += lease
			res.IndexReads += index
			res.StaleReads += stale
			res.ForwardedReads += fwd
		}
	}
	// Stop the cluster before reading the sync counters so in-flight
	// persist runs are counted, not raced (the deferred cleanup re-runs
	// both calls harmlessly).
	cancel()
	cluster.Wait()
	for _, fs := range files {
		res.Fsyncs += fs.Syncs()
	}
	res.Fsyncs -= startSyncs
	var requests int64
	for n := 0; n < cfg.Nodes; n++ {
		if sc := cluster.Syncer(n); sc != nil {
			res.Barriers += sc.Barriers()
			requests += sc.Requests()
		}
	}
	res.Barriers -= startBarriers
	requests -= startRequests
	if res.Ops > 0 {
		res.FsyncsPerOp = float64(res.Fsyncs) / float64(res.Ops)
		res.BarriersPerOp = float64(res.Barriers) / float64(res.Ops)
	}
	if res.Barriers > 0 {
		res.MeanWidth = float64(requests) / float64(res.Barriers)
	}
	return res, nil
}

// p50p99 sorts ds in place and returns its median and 99th percentile
// (zero when empty).
func p50p99(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], ds[len(ds)*99/100]
}

// e16DeviceLatency is the modeled device latency per durability barrier
// in E16 (a commodity-SSD-class fsync), paid at one raft.Disk per node and
// shared by all of the node's groups. Without it the experiment compares
// host storage moods, not topologies: on shared infrastructure a
// page-cache-fast fsync lets one un-batched client saturate the device
// from a single group (no headroom for sharding to claim), while a slow
// minute shows near-linear scaling — the same binary, 10x apart. One
// device per node is the deployment where groups' flushes collide, so
// the curve shows what the node-wide SyncCoalescer makes of it.
const e16DeviceLatency = 2 * time.Millisecond

// RunE16 measures multi-Raft scaling end to end: the same 3-node
// machine, the keyspace hash-split across 1/2/4/8 groups, one pinned
// closed-loop client per shard, file storage, and one modeled 2ms device
// per node (see e16DeviceLatency) under the node's SyncCoalescer. One
// group's throughput is bounded by its single leader's serialized commit
// pipeline — latency per group-commit round, not CPU — so independent
// groups with leaders spread across nodes overlap those rounds, and their
// concurrent flushes share a node's device barriers, so aggregate ops/sec
// climbs until the device or the CPU saturates. speedup_vs_1shard is the
// headline column; barriers_per_op and mean_width show the sharing, and
// leader_spread verifies the placement half of the design actually
// happened.
func RunE16(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E16",
		Title: "Multi-Raft scaling: hash-split keyspace over independent groups, closed loop, file storage + one 2ms device per node",
		Columns: []string{"shards", "clients", "trials", "ops", "ops_per_sec", "speedup_vs_1shard",
			"p50_ms", "p99_ms", "fsyncs_per_op", "barriers_per_op", "mean_width", "leader_spread", "rebalances", "key_imbalance"},
	}
	shardCounts := []int{1, 2, 4, 8}
	duration := 500 * time.Millisecond
	trials := s.Trials
	if trials > 3 {
		trials = 3 // wall-clock bound, like E14/E15
	}
	if s.Quick {
		shardCounts = []int{1, 2}
		duration = 200 * time.Millisecond
		trials = 1
	}
	base := 0.0
	for _, shards := range shardCounts {
		reg := s.cellRegistry()
		shardRegs := make([]*metrics.Registry, shards)
		var shardMetrics func(int) *metrics.Registry
		if s.CollectMetrics {
			for i := range shardRegs {
				shardRegs[i] = metrics.NewRegistry()
			}
			shardMetrics = func(i int) *metrics.Registry { return shardRegs[i] }
		}
		var opsPerSec, p50, p99, fsyncsPerOp, barriersPerOp, meanWidth, imbalance stats
		ops, spreadMin, rebalances := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			res, err := RunMultiShard(MultiShardConfig{
				Nodes:           3,
				Shards:          shards,
				ClientsPerShard: 1,
				Duration:        duration,
				Seed:            s.BaseSeed + uint64(shards*10+trial),
				FileStorage:     true,
				DeviceLatency:   e16DeviceLatency,
				// An 8-shard node can queue several 2ms barriers ahead of a
				// replica's flush; the headroom keeps failover machinery out
				// of a window that measures steady-state replication.
				ElectionTimeout: 150 * time.Millisecond,
				Metrics:         reg,
				ShardMetrics:    shardMetrics,
			})
			if err != nil {
				return tbl, fmt.Errorf("E16 shards=%d: %w", shards, err)
			}
			ops += res.Ops
			opsPerSec.add(res.OpsPerSec)
			p50.add(res.P50.Seconds() * 1000)
			p99.add(res.P99.Seconds() * 1000)
			fsyncsPerOp.add(res.FsyncsPerOp)
			barriersPerOp.add(res.BarriersPerOp)
			meanWidth.add(res.MeanWidth)
			imbalance.add(res.KeyImbalance)
			rebalances += res.Rebalances
			if trial == 0 || res.LeaderSpread < spreadMin {
				spreadMin = res.LeaderSpread
			}
		}
		mean := opsPerSec.mean()
		if shards == 1 {
			base = mean
		}
		speedup := 0.0
		if base > 0 {
			speedup = mean / base
		}
		tbl.AddRow(shards, shards, trials, ops, mean, speedup,
			p50.mean(), p99.mean(), fsyncsPerOp.mean(), barriersPerOp.mean(), meanWidth.mean(), spreadMin, rebalances, imbalance.mean())
		if s.CollectMetrics {
			tbl.attachMetrics(fmt.Sprintf("shards=%d", shards), reg.Snapshot())
			for i, sreg := range shardRegs {
				tbl.attachMetrics(fmt.Sprintf("shards=%d shard=%d", shards, i), sreg.Snapshot())
			}
		}
	}
	tbl.Notes = append(tbl.Notes,
		"weak scaling: one closed-loop client pinned per shard, so per-shard offered load is constant as groups are added",
		"the 1-shard row is the un-amortized floor: a lone client gets no proposal batching, so each op pays a full group-commit round (fsyncs_per_op ≈ replicas)",
		"each (node, shard) replica persists to its own log file, and all of a node's replicas share ONE modeled 2ms device (shard.Config.DeviceLatency → raft.Disk) so the scaling curve measures the topology, not the benchmark host's storage speed of the minute; real fsyncs still run and are counted underneath",
		"one raft.SyncCoalescer per node parks concurrent group flushes on a shared barrier; barriers_per_op is the node-wide device-barrier count per committed op, mean_width = sync requests / barriers paid",
		"fsyncs_per_op counts real fdatasync calls underneath the modeled barrier: one per round where the filesystem overwrites in place (the round writes its files back, then flushes once), one per flush elsewhere",
		"speedup_vs_1shard > 1 is leaders' commit pipelines overlapping and sharing barriers; the ceiling is the modeled device, then the CPU",
		"leader_spread is the minimum over trials of distinct nodes leading ≥1 shard at window end (placement check)",
		"key_imbalance is max/mean keys per shard over the workload key table — near 1.0 rules out a hot-shard artifact",
		"E14 measures the same machine's single group under a saturating 8-client load — the batch-amortized ceiling one leader can reach")
	return tbl, nil
}
