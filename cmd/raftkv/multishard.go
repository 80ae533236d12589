package main

import (
	"context"
	"fmt"
	"time"

	"ooc/internal/bench"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/shard"
	"ooc/internal/sim"
	"ooc/internal/transport"
)

// runMultiShardBench runs the closed-loop multi-Raft benchmark (the E16
// engine): the keyspace hash-split across shards independent groups
// multiplexed over one simulated network, clients closed-loop clients
// per shard.
func runMultiShardBench(n, shards, clients int, duration time.Duration, disk bool, seed uint64,
	readRatio float64, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	if !disk {
		return fmt.Errorf("multi-shard bench persists through FileStorage; it needs -disk=true")
	}
	mix := "write-only"
	if readRatio > 0 {
		mix = fmt.Sprintf("%.0f%% %v reads", readRatio*100, readMode)
	}
	fsync := "coalesced"
	if deviceLatency > 0 {
		fsync += fmt.Sprintf(", %v shared device", deviceLatency)
	}
	fmt.Printf("raftkv multi-shard bench: %d nodes, %d shards, %d clients/shard, %v window, %s, fsync %s\n",
		n, shards, clients, duration, mix, fsync)
	res, err := bench.RunMultiShard(bench.MultiShardConfig{
		Nodes:           n,
		Shards:          shards,
		ClientsPerShard: clients,
		Duration:        duration,
		Seed:            seed,
		FileStorage:     true,
		Metrics:         reg,
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
	fmt.Printf("  fsyncs          %d (%.3f per op, fdatasync calls)\n", res.Fsyncs, res.FsyncsPerOp)
	if res.Barriers > 0 {
		fmt.Printf("  device barriers %d (%.3f per op, mean width %.2f)\n",
			res.Barriers, res.BarriersPerOp, res.MeanWidth)
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

// runMultiShardDemo runs a whole multi-Raft cluster in one process over
// loopback TCP: shards independent groups share n transports through
// per-group mux channels, writes route by key, and a linearizable read
// comes back through the owning group's fast path.
func runMultiShardDemo(n, shards int, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	fmt.Printf("starting %d-node / %d-shard raft kv cluster on loopback TCP...\n", n, shards)
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
		Tracer:            tracer,
		Flights:           flights,
	})
	if err != nil {
		return err
	}
	if err := cluster.Start(ctx); err != nil {
		return err
	}
	for i, ep := range eps {
		fmt.Printf("  node %d listening on %s (%d group channels)\n", i, ep.Addr(), shards)
	}
	if err := cluster.WaitForLeaders(ctx); err != nil {
		return err
	}
	fmt.Printf("leaders elected:")
	for s, node := range cluster.LeaderPlacement() {
		fmt.Printf(" shard%d→node%d", s, node)
	}
	fmt.Printf("  (spread %d/%d nodes)\n", cluster.LeaderSpread(), n)

	for i := 0; i < 2*shards; i++ {
		key, val := fmt.Sprintf("key%d", i), fmt.Sprintf("val%d", i)
		s, idx, err := cluster.Put(ctx, key, val)
		if err != nil {
			return fmt.Errorf("put %s: %w", key, err)
		}
		fmt.Printf("put %s=%s → shard %d index %d\n", key, val, s, idx)
	}
	v, ok, err := cluster.GetWith(ctx, "key0", raft.ReadLinearizable)
	if err != nil {
		return fmt.Errorf("get key0: %w", err)
	}
	fmt.Printf("linearizable read via shard %d: key0=%q (found=%v)\n", cluster.ShardOf("key0"), v, ok)

	// Read each shard's leader replica: follower replicas may be an
	// apply batch behind at any instant, which would read as data loss.
	fmt.Printf("per-shard state:\n")
	for s, leader := range cluster.LeaderPlacement() {
		g := cluster.Group(s)
		if leader < 0 {
			leader = 0
		}
		if kv, ok := g.StateMachine(leader).(*raft.KVStore); ok {
			fmt.Printf("  shard %d (leader node %d): %v\n", s, leader, kv.Snapshot())
		}
	}
	fmt.Println("demo ok")
	return nil
}
