package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"ooc/internal/bench"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/transport"
)

// runMultiShardBench runs the closed-loop benchmark (the engine behind
// experiments E14–E16): the keyspace hash-split across shards groups of
// one shard.Cluster multiplexed over one simulated network, clients
// closed-loop clients per shard. Every group's raft_* metrics land in
// reg, summed over groups.
func runMultiShardBench(n, shards, clients int, duration time.Duration, disk bool, seed uint64,
	readRatio float64, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	mix := "write-only"
	if readRatio > 0 {
		mix = fmt.Sprintf("%.0f%% %v reads", readRatio*100, readMode)
	}
	storage := "mem"
	if disk {
		storage = "file (coalesced fsync)"
		if deviceLatency > 0 {
			storage = fmt.Sprintf("file (coalesced fsync, %v shared device)", deviceLatency)
		}
	}
	fmt.Printf("raftkv bench: %d nodes, %d shards, %d clients/shard, %v window, %s, storage=%s\n",
		n, shards, clients, duration, mix, storage)
	res, err := bench.RunMultiShard(bench.MultiShardConfig{
		Nodes:           n,
		Shards:          shards,
		ClientsPerShard: clients,
		Duration:        duration,
		Seed:            seed,
		FileStorage:     disk,
		Metrics:         reg,
		ShardMetrics:    func(int) *metrics.Registry { return reg },
		Tracer:          tracer,
		Flights:         flights,
		ReadRatio:       readRatio,
		ReadMode:        readMode,
		LeaseDuration:   lease,
		DeviceLatency:   deviceLatency,
		Recorder:        shardTrace,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  committed ops   %d\n", res.Ops)
	fmt.Printf("  throughput      %.0f ops/sec\n", res.OpsPerSec)
	fmt.Printf("  latency p50     %v\n", res.P50.Round(10*time.Microsecond))
	fmt.Printf("  latency p99     %v\n", res.P99.Round(10*time.Microsecond))
	if disk {
		fmt.Printf("  fsyncs          %d (%.3f per op, fdatasync calls)\n", res.Fsyncs, res.FsyncsPerOp)
	}
	if res.Barriers > 0 {
		fmt.Printf("  device barriers %d (%.3f per op, mean width %.2f)\n",
			res.Barriers, res.BarriersPerOp, res.MeanWidth)
	}
	fmt.Printf("  allocs per op   %.1f (process-wide)\n", res.AllocsPerOp)
	if readRatio > 0 {
		fmt.Printf("  reads/writes    %d / %d\n", res.Reads, res.Writes)
		fmt.Printf("  read p50/p99    %v / %v\n",
			res.ReadP50.Round(10*time.Microsecond), res.ReadP99.Round(10*time.Microsecond))
		fmt.Printf("  served by       lease=%d readindex=%d stale=%d forwarded=%d\n",
			res.LeaseReads, res.IndexReads, res.StaleReads, res.ForwardedReads)
	}
	fmt.Printf("  per-shard ops  ")
	for s, ops := range res.PerShardOps {
		fmt.Printf(" shard%d=%d", s, ops)
	}
	fmt.Println()
	fmt.Printf("  leaders        ")
	for s, node := range res.LeaderPlacement {
		fmt.Printf(" shard%d→node%d", s, node)
	}
	fmt.Printf("  (spread %d/%d nodes, %d rebalances)\n", res.LeaderSpread, n, res.Rebalances)
	fmt.Printf("  key imbalance   %.2f (max/mean keys per shard)\n", res.KeyImbalance)
	return nil
}

// runClusterDemo runs a whole shard.Cluster in one process over loopback
// TCP: shards groups share n transports through per-group mux channels,
// writes route by key, and a linearizable read comes back through the
// owning group's fast path. Then it crashes the node leading shard 0 by
// closing its transport — every replica that node hosts stops with it —
// waits until every shard has a leader on a live node, commits one write
// per shard, and prints how long the cluster went without service. The
// narration goes to out.
func runClusterDemo(out io.Writer, n, shards int, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	fmt.Fprintf(out, "starting %d-node / %d-shard raft kv cluster on loopback TCP...\n", n, shards)
	eps, err := transport.NewLocalCluster(n, transport.WithMetrics(reg))
	if err != nil {
		return err
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	endpoints := make([]msgnet.Endpoint, n)
	for i, ep := range eps {
		endpoints[i] = ep
	}
	cluster, err := shard.NewCluster(shard.Config{
		Endpoints:         endpoints,
		Shards:            shards,
		RNG:               sim.NewRNG(42),
		ElectionTimeout:   150 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		LeaseDuration:     lease,
		ReadMode:          readMode,
		Metrics:           reg,
		ShardMetrics:      func(int) *metrics.Registry { return reg },
		Tracer:            tracer,
		Flights:           flights,
	})
	if err != nil {
		return err
	}
	if err := cluster.Start(ctx); err != nil {
		return err
	}
	defer func() {
		cancel()
		cluster.Wait()
	}()
	for i, ep := range eps {
		fmt.Fprintf(out, "  node %d listening on %s (%d group channels)\n", i, ep.Addr(), shards)
	}
	if err := cluster.WaitForLeaders(ctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "leaders elected:%s  (spread %d/%d nodes)\n", leaders(cluster), cluster.LeaderSpread(), n)

	for i := 0; i < 2*shards; i++ {
		key, val := fmt.Sprintf("key%d", i), fmt.Sprintf("val%d", i)
		s, idx, err := cluster.Put(ctx, key, val)
		if err != nil {
			return fmt.Errorf("put %s: %w", key, err)
		}
		fmt.Fprintf(out, "put %s=%s → shard %d index %d\n", key, val, s, idx)
	}
	v, ok, err := cluster.GetWith(ctx, "key0", raft.ReadLinearizable)
	if err != nil {
		return fmt.Errorf("get key0: %w", err)
	}
	fmt.Fprintf(out, "linearizable read via shard %d: key0=%q (found=%v)\n", cluster.ShardOf("key0"), v, ok)

	dead := leaderOf(cluster.Group(0))
	fmt.Fprintf(out, "crashing node %d, leader of shard 0...\n", dead)
	crashed := time.Now()
	_ = eps[dead].Close()
	for s := 0; s < shards; s++ {
		select {
		case <-cluster.Group(s).Nodes[dead].Done():
		case <-ctx.Done():
			return fmt.Errorf("node %d did not stop: %w", dead, ctx.Err())
		}
	}
	// A stopped replica reports no role, so every leader counted from here
	// on is on a live node.
	if err := cluster.WaitForLeaders(ctx); err != nil {
		return err
	}
	toLeaders := time.Since(crashed)
	fmt.Fprintf(out, "failover complete:%s\n", leaders(cluster))
	var toWrite time.Duration
	for s, i := 0, 0; s < shards; i++ {
		key := fmt.Sprintf("after%d", i)
		if cluster.ShardOf(key) != s {
			continue
		}
		_, idx, err := cluster.Put(ctx, key, "ok")
		if err != nil {
			return fmt.Errorf("post-failover put %s: %w", key, err)
		}
		if s == 0 {
			toWrite = time.Since(crashed)
		}
		fmt.Fprintf(out, "post-failover put %s → shard %d index %d\n", key, s, idx)
		s++
	}
	fmt.Fprintf(out, "time without service: %v to a leader on every shard, %v to the first acknowledged write\n",
		toLeaders.Round(10*time.Microsecond), toWrite.Round(10*time.Microsecond))

	// Read each shard's leader replica: follower replicas may be an apply
	// batch behind at any instant, which would read as data loss.
	fmt.Fprintf(out, "per-shard state:\n")
	for s := 0; s < shards; s++ {
		leader := leaderOf(cluster.Group(s))
		if kv, ok := cluster.Group(s).StateMachine(leader).(*raft.KVStore); ok {
			fmt.Fprintf(out, "  shard %d (leader node %d): %v\n", s, leader, kv.Snapshot())
		}
	}
	fmt.Fprintln(out, "demo ok")
	return nil
}

// leaderOf returns the node that leads g by its own status, or the first
// node when none does.
func leaderOf(g *shard.Group) int {
	for id, nd := range g.Nodes {
		if nd.Status().State == raft.Leader {
			return id
		}
	}
	return 0
}

// leaders renders each shard's current leader node.
func leaders(c *shard.Cluster) string {
	out := ""
	for s := 0; s < c.NumShards(); s++ {
		out += fmt.Sprintf(" shard%d→node%d", s, leaderOf(c.Group(s)))
	}
	return out
}
