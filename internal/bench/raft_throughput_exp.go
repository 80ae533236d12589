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
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
	"ooc/internal/transport"
	"ooc/internal/workload"
)

// FileStorage gob-encodes log entries, so the commands the harness
// replicates must be registered once per process.
func init() {
	transport.Register(raft.WireTypes()...)
}

// ThroughputConfig parameterizes one closed-loop Raft throughput run: a
// cluster of Nodes over netsim, Clients concurrent closed-loop clients
// (each submits, waits for commit+apply, submits again) hammering the
// replicated KV store through raft.Client for Duration.
type ThroughputConfig struct {
	Nodes    int
	Clients  int
	Duration time.Duration
	Seed     uint64
	// FileStorage routes every node's persistence through an on-disk
	// store in Dir (a temp dir when empty) — the fsync-bound configuration
	// group commit exists for — on a per-node raft.SyncCoalescer, which
	// with one group per node runs every barrier at width 1. Otherwise
	// nodes run MemStorage.
	FileStorage bool
	Dir         string
	// Metrics, if non-nil, instruments the nodes (batch-size and inflight
	// histograms land here).
	Metrics *metrics.Registry
	// Pipeline knobs; zero values take the raft.Config defaults.
	MaxEntriesPerAppend int
	MaxInflightAppends  int
	MaxProposalBatch    int
	// Read-mix knobs (E15). ReadRatio > 0 turns each client into a mixed
	// closed loop drawing from a workload.KVMix; ReadMode selects the
	// serving path (raft.ReadLogCommand is the reads-as-log-commands
	// baseline); LeaseDuration > 0 enables leader leases cluster-wide;
	// Keys and Zipfian shape the key distribution.
	ReadRatio     float64
	ReadMode      raft.ReadConsistency
	LeaseDuration time.Duration
	Keys          int
	Zipfian       bool
	// Tracer, if non-nil, samples per-request spans across the run: the
	// harness client opens them, the nodes attribute phases into them.
	// After the run, Tracer.Spans() holds the sampled timelines.
	Tracer *rtrace.Tracer
	// Flights, if non-nil, gives node i the flight recorder Flights[i]
	// (short slices leave the rest unwired).
	Flights []*rtrace.Flight
}

// ThroughputResult is one run's outcome.
type ThroughputResult struct {
	Ops         int           // committed-and-applied client ops
	OpsPerSec   float64       // Ops / wall-clock elapsed
	P50         time.Duration // client-observed submit→applied latency
	P99         time.Duration
	Fsyncs      int64   // total fsyncs across the cluster (file storage only)
	FsyncsPerOp float64 // Fsyncs / Ops
	AllocsPerOp float64 // process-wide heap allocations per op (approximate)

	// Mixed-workload breakdown (zero unless ReadRatio > 0).
	Reads   int
	Writes  int
	ReadP50 time.Duration // client-observed read latency
	ReadP99 time.Duration
	// Per-path serving counts summed over the cluster (raft.ReadStats).
	LeaseReads, IndexReads, StaleReads, ForwardedReads int64
}

// RunRaftThroughput runs one closed-loop throughput trial. It is the
// engine behind experiment E14, BenchmarkE14, and `raftkv -bench`.
func RunRaftThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	dir := cfg.Dir
	if cfg.FileStorage && dir == "" {
		d, err := os.MkdirTemp("", "ooc-raft-bench-*")
		if err != nil {
			return ThroughputResult{}, err
		}
		defer func() { _ = os.RemoveAll(d) }()
		dir = d
	}

	nw := netsim.New(cfg.Nodes, netsim.WithSeed(cfg.Seed))
	rng := sim.NewRNG(cfg.Seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	nodes := make([]*raft.Node, cfg.Nodes)
	files := make([]*raft.FileStorage, 0, cfg.Nodes)
	// Cleanup order matters: a started node's persist worker writes to
	// its FileStorage until Done() fires, so the files close only after
	// every node has fully stopped.
	defer func() {
		cancel()
		for _, nd := range nodes {
			if nd != nil {
				<-nd.Done()
			}
		}
		for _, fs := range files {
			_ = fs.Close()
		}
	}()
	for id := 0; id < cfg.Nodes; id++ {
		var store raft.Storage
		var syncer *raft.SyncCoalescer
		if cfg.FileStorage {
			fs, err := raft.OpenFileStorage(filepath.Join(dir, fmt.Sprintf("node-%d.log", id)))
			if err != nil {
				return ThroughputResult{}, err
			}
			if _, err := fs.Load(); err != nil {
				_ = fs.Close()
				return ThroughputResult{}, err
			}
			files = append(files, fs)
			store = fs
			syncer = raft.NewSyncCoalescer(raft.SyncerConfig{Metrics: cfg.Metrics, Node: id})
		} else {
			store = raft.NewMemStorage()
		}
		node, err := raft.NewNode(raft.Config{
			ID:                  id,
			Endpoint:            nw.Node(id),
			RNG:                 rng.Fork(uint64(id)),
			ElectionTimeout:     benchElection,
			HeartbeatInterval:   benchHeartbeat,
			StateMachine:        &raft.KVStore{},
			Storage:             store,
			Metrics:             cfg.Metrics,
			Tracer:              cfg.Tracer,
			Flight:              flightAt(cfg.Flights, id),
			MaxEntriesPerAppend: cfg.MaxEntriesPerAppend,
			MaxInflightAppends:  cfg.MaxInflightAppends,
			MaxProposalBatch:    cfg.MaxProposalBatch,
			LeaseDuration:       cfg.LeaseDuration,
			Syncer:              syncer,
		})
		if err != nil {
			return ThroughputResult{}, err
		}
		nodes[id] = node
		node.Start(ctx)
	}
	client, err := raft.NewClient(nodes,
		raft.WithClientBackoff(time.Millisecond),
		raft.WithClientRNG(rng.Fork(uint64(cfg.Nodes))),
		raft.WithClientTracer(cfg.Tracer))
	if err != nil {
		return ThroughputResult{}, err
	}

	// Wait for a leader so the measured window doesn't include the first
	// election (we are measuring the replication path, not elections).
	warmCtx, warmCancel := context.WithTimeout(ctx, 10*time.Second)
	_, err = client.SubmitWait(warmCtx, raft.KVCommand{Op: "set", Key: "warmup", Value: "1"})
	warmCancel()
	if err != nil {
		return ThroughputResult{}, fmt.Errorf("warmup: %w", err)
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var startSyncs int64
	for _, fs := range files {
		startSyncs += fs.Syncs()
	}

	runCtx, runCancel := context.WithCancel(ctx)
	lat := make([][]time.Duration, cfg.Clients)
	rlat := make([][]time.Duration, cfg.Clients)
	writes := make([]int, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.AfterFunc(cfg.Duration, runCancel)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if cfg.ReadRatio <= 0 {
				for op := 0; ; op++ {
					t0 := time.Now()
					_, err := client.SubmitWait(runCtx, raft.KVCommand{
						Op: "set", Key: fmt.Sprintf("c%d", c), Value: fmt.Sprintf("%d", op),
					})
					if err != nil {
						return // deadline hit (or cluster stopped): window over
					}
					lat[c] = append(lat[c], time.Since(t0))
				}
			}
			// Mixed closed loop: each client draws from its own
			// deterministic stream; keyspaces are disjoint per client so
			// the write discipline stays single-writer-per-key.
			dist := workload.KeysUniform
			if cfg.Zipfian {
				dist = workload.KeysZipfian
			}
			mix, err := workload.NewKVMix(workload.KVMixConfig{
				ReadRatio: cfg.ReadRatio, Keys: cfg.Keys, Dist: dist,
			}, rng.Stream('m', uint64(c)))
			if err != nil {
				return
			}
			prefix := fmt.Sprintf("c%d/", c)
			for {
				op := mix.Next()
				t0 := time.Now()
				if op.Read {
					if _, _, err := client.ReadWith(runCtx, prefix+op.Key, cfg.ReadMode); err != nil {
						return
					}
					d := time.Since(t0)
					lat[c] = append(lat[c], d)
					rlat[c] = append(rlat[c], d)
					continue
				}
				if _, err := client.SubmitWait(runCtx, raft.KVCommand{
					Op: "set", Key: prefix + op.Key, Value: op.Value,
				}); err != nil {
					return
				}
				lat[c] = append(lat[c], time.Since(t0))
				writes[c]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	timer.Stop()
	runCancel()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	res := ThroughputResult{}
	all := make([]time.Duration, 0, 1024)
	for _, ls := range lat {
		res.Ops += len(ls)
		all = append(all, ls...)
	}
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50 = all[len(all)/2]
		res.P99 = all[len(all)*99/100]
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	}
	if cfg.ReadRatio > 0 {
		reads := make([]time.Duration, 0, 1024)
		for _, ls := range rlat {
			reads = append(reads, ls...)
		}
		res.Reads = len(reads)
		for _, w := range writes {
			res.Writes += w
		}
		if len(reads) > 0 {
			sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
			res.ReadP50 = reads[len(reads)/2]
			res.ReadP99 = reads[len(reads)*99/100]
		}
		for _, nd := range nodes {
			lease, index, stale, fwd := nd.ReadStats()
			res.LeaseReads += lease
			res.IndexReads += index
			res.StaleReads += stale
			res.ForwardedReads += fwd
		}
	}
	// Stop the cluster before reading the sync counters so a persist
	// worker's final fsync is counted, not raced. (cancel and Done are
	// both idempotent; the deferred cleanup re-runs them harmlessly.)
	cancel()
	for _, nd := range nodes {
		<-nd.Done()
	}
	for _, fs := range files {
		res.Fsyncs += fs.Syncs()
	}
	res.Fsyncs -= startSyncs
	if res.Ops > 0 {
		res.FsyncsPerOp = float64(res.Fsyncs) / float64(res.Ops)
	}
	return res, nil
}

// flightAt indexes a possibly-short flight slice.
func flightAt(flights []*rtrace.Flight, id int) *rtrace.Flight {
	if id < len(flights) {
		return flights[id]
	}
	return nil
}

// RunE14 measures the batched-and-pipelined replication path end to end:
// committed ops/sec and client latency under a closed-loop load, swept
// over storage backend and client count. The file-storage rows are the
// ones group-commit fsync amortization exists for: fsyncs_per_op falling
// well below 1 is the direct signature of batching at the durability
// barrier.
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
				res, err := RunRaftThroughput(ThroughputConfig{
					Nodes:       3,
					Clients:     clients,
					Duration:    duration,
					Seed:        s.BaseSeed + uint64(clients*10+trial),
					FileStorage: storage == "file",
					Metrics:     reg,
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
		"closed loop: each client submits, waits for commit+apply, then submits again — ops/sec counts applied writes",
		"fsyncs_per_op < 1 on file rows is group commit working: one durability barrier covers many coalesced proposals",
		"allocs_per_op is process-wide Mallocs delta / ops, an approximation shared across nodes and clients")
	return tbl, nil
}

// e15Modes are the read paths E15 compares, baseline first.
var e15Modes = []raft.ReadConsistency{
	raft.ReadLogCommand, raft.ReadLinearizable, raft.ReadLease, raft.ReadStale,
}

// RunE15 measures the linearizable read fast path end to end: a 90/10
// read/write closed loop on file storage, swept over the serving mode.
// The log-command row is the pre-fast-path baseline (every read is a
// replicated no-mutation command, paying the fsync); the ReadIndex row
// replaces that with one piggybacked heartbeat round per coalesced
// batch; the lease row removes even that round while the lease holds;
// the stale row is the uncoordinated floor.
func RunE15(s Suite) (Table, error) {
	tbl := Table{
		ID:    "E15",
		Title: "Raft linearizable reads: log-command baseline vs ReadIndex vs lease vs stale (90/10 mix, file storage)",
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
			cfg := ThroughputConfig{
				Nodes:       3,
				Clients:     clients,
				Duration:    duration,
				Seed:        s.BaseSeed + uint64(int(mode)*10+trial),
				FileStorage: true,
				Metrics:     reg,
				ReadRatio:   0.9,
				ReadMode:    mode,
				Keys:        256,
			}
			if mode == raft.ReadLease {
				cfg.LeaseDuration = benchElection / 2
			}
			res, err := RunRaftThroughput(cfg)
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
		"log rows append every read to the log (fsyncs_per_op near 1); readindex rows serve reads without touching storage",
		"lease rows skip the confirmation round while the lease holds: read_p50 drops below the readindex row's",
		"the per-path columns come from raft.ReadStats and attribute each read to the mechanism that served it")
	return tbl, nil
}
