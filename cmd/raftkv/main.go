// Command raftkv is a replicated key-value store over real TCP — the
// kind of application log Raft was designed for (paper §4.3).
//
// Demo mode runs a whole cluster in one process on loopback sockets,
// exercises replication and leader failover, and exits:
//
//	raftkv -demo -n 5
//
// Server mode runs one node of a multi-process cluster and accepts
// commands on stdin (set k v | del k | get k | status | quit):
//
//	raftkv -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Either mode exposes live telemetry when given -telemetry addr: an HTTP
// listener serving /metrics (Prometheus text, or JSON with
// ?format=json) and the standard /debug/pprof endpoints:
//
//	raftkv -demo -telemetry 127.0.0.1:9100
//	curl 127.0.0.1:9100/metrics
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ooc/internal/bench"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/transport"
)

// tracer samples per-request spans when -trace-sample > 0 (nil
// otherwise: every hook no-ops). flights holds one flight recorder per
// in-process node when -flight-dir is set (nil otherwise), dumping to
// that directory on anomalies.
var (
	tracer  *rtrace.Tracer
	flights []*rtrace.Flight
)

// deviceLatency mirrors -device-latency: a modeled shared-device cost
// per barrier for the multi-shard bench (the E16 fixture).
// shardTrace is the multi-shard bench's protocol recorder (non-nil only
// when -shard-trace-out is set): it captures mux-tagged message events
// plus per-flush fsync notes, the input for ooctrace's per-channel
// fsyncs/width columns.
var (
	deviceLatency time.Duration
	shardTrace    *trace.Recorder
)

// writeShardTrace dumps the multi-shard bench's protocol trace to path.
func writeShardTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f, shardTrace.Snapshot()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// newFlights builds count recorders dumping into dir ("" = disabled).
func newFlights(count int, dir string, reg *metrics.Registry) []*rtrace.Flight {
	if dir == "" {
		return nil
	}
	fl := make([]*rtrace.Flight, count)
	for i := range fl {
		fl[i] = rtrace.NewFlight(i, 4096, rtrace.WithFlightDir(dir), rtrace.WithFlightMetrics(reg))
	}
	return fl
}

func main() {
	var (
		demo      = flag.Bool("demo", false, "run an in-process demo cluster and exit")
		n         = flag.Int("n", 3, "demo cluster size")
		id        = flag.Int("id", 0, "this node's index into -peers")
		peers     = flag.String("peers", "", "comma-separated cluster addresses, indexed by node id")
		telemetry = flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
		benchMode = flag.Bool("bench", false, "run the closed-loop throughput benchmark and exit")
		clients   = flag.Int("clients", 8, "bench mode: concurrent closed-loop clients")
		duration  = flag.Duration("duration", time.Second, "bench mode: measurement window")
		diskStore = flag.Bool("disk", true, "bench mode: persist through FileStorage (fsync path); false = MemStorage")
		seed      = flag.Uint64("seed", 1, "bench mode: simulation seed")
		readCons  = flag.String("read-consistency", "linearizable", "how get serves reads: linearizable | lease | stale (bench mode also accepts log)")
		lease     = flag.Duration("lease", 0, "leader lease duration (0 disables; reads with -read-consistency lease skip the quorum round while it holds)")
		readRatio = flag.Float64("read-ratio", 0, "bench mode: fraction of ops that are reads (0 = write-only E14 loop)")
		shards    = flag.Int("shards", 1, "split the keyspace across this many independent Raft groups (demo and bench modes)")
		sample    = flag.Float64("trace-sample", 0, "per-request tracing sample rate in [0,1]; 0 disables (span timelines dump to -trace-out for ooctrace -request)")
		traceOut  = flag.String("trace-out", "", "write sampled span timelines to this JSON file on exit (requires -trace-sample > 0)")
		flightDir = flag.String("flight-dir", "", "arm per-node flight recorders dumping recent events to this directory on anomalies (elections, lease expiries, mux backlog drops)")
		devLat    = flag.Duration("device-latency", 0, "bench mode with -shards>1: model one shared storage device per node with this latency per durability barrier (the E16 fixture; 0 disables)")
		shardTr   = flag.String("shard-trace-out", "", "bench mode with -shards>1: write the protocol trace (mux traffic + per-flush fsync notes) to this JSON file for ooctrace's channel table")
	)
	flag.Parse()
	deviceLatency = *devLat
	if *shardTr != "" {
		if !*benchMode || *shards <= 1 {
			fmt.Fprintln(os.Stderr, "raftkv: -shard-trace-out needs -bench with -shards > 1")
			os.Exit(1)
		}
		shardTrace = trace.NewTimedRecorder()
	}
	transport.Register(raft.WireTypes()...)
	transport.Register(msgnet.WireTypes()...) // multi-shard traffic rides the mux wrapper

	readMode, err := raft.ParseReadConsistency(*readCons)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raftkv: %v\n", err)
		os.Exit(1)
	}

	var reg *metrics.Registry
	if *telemetry != "" {
		reg = metrics.NewRegistry()
	}
	if *sample > 0 {
		tracer = rtrace.New(rtrace.Options{Sample: *sample, Registry: reg})
	} else if *traceOut != "" {
		fmt.Fprintln(os.Stderr, "raftkv: -trace-out needs -trace-sample > 0")
		os.Exit(1)
	}
	// Demo and bench modes run the whole cluster in-process (one recorder
	// per node); server mode runs one node, labeled with its cluster id.
	if *demo || *benchMode {
		flights = newFlights(*n, *flightDir, reg)
	} else if *flightDir != "" {
		flights = []*rtrace.Flight{rtrace.NewFlight(*id, 4096,
			rtrace.WithFlightDir(*flightDir), rtrace.WithFlightMetrics(reg))}
	}
	if *telemetry != "" {
		var routes []metrics.Route
		if len(flights) > 0 {
			// /debug/flight serves the first in-process node's ring; the
			// per-node views sit underneath it.
			routes = append(routes, metrics.Route{Pattern: "/debug/flight", Handler: flights[0].Handler()})
			for i, fl := range flights {
				routes = append(routes, metrics.Route{Pattern: fmt.Sprintf("/debug/flight/%d", i), Handler: fl.Handler()})
			}
		}
		srv, err := metrics.Serve(*telemetry, reg, routes...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "raftkv: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
		if len(flights) > 0 {
			fmt.Printf("flight recorder on http://%s/debug/flight (dumps to %s)\n", srv.Addr, *flightDir)
		}
	}

	switch {
	case *benchMode && *shards > 1:
		err = runMultiShardBench(*n, *shards, *clients, *duration, *diskStore, *seed, *readRatio, readMode, *lease, reg)
	case *benchMode:
		err = runBench(*n, *clients, *duration, *diskStore, *seed, *readRatio, readMode, *lease, reg)
	case *demo && *shards > 1:
		err = runMultiShardDemo(*n, *shards, readMode, *lease, reg)
	case *demo:
		err = runDemo(*n, *lease, reg)
	default:
		if *shards > 1 {
			err = fmt.Errorf("-shards applies to -demo and -bench; server mode runs one single-group node per process")
		} else {
			err = runServer(*id, strings.Split(*peers, ","), readMode, *lease, reg)
		}
	}
	if shardTrace != nil {
		if werr := writeShardTrace(*shardTr); werr != nil {
			fmt.Fprintf(os.Stderr, "raftkv: shard trace dump: %v\n", werr)
		} else {
			fmt.Printf("protocol trace written to %s (view: ooctrace %s)\n", *shardTr, *shardTr)
		}
	}
	if tracer != nil && *traceOut != "" {
		if werr := tracer.WriteFile(*traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "raftkv: trace dump: %v\n", werr)
		} else {
			fmt.Printf("sampled spans written to %s (view: ooctrace -spans %s -request <id>)\n", *traceOut, *traceOut)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "raftkv: %v\n", err)
		os.Exit(1)
	}
}

// runBench runs the closed-loop throughput benchmark (the engine behind
// experiments E14 and E15) and prints a one-screen report.
func runBench(n, clients int, duration time.Duration, disk bool, seed uint64,
	readRatio float64, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	kind := "mem"
	if disk {
		kind = "file (group-commit fsync)"
	}
	mix := "write-only"
	if readRatio > 0 {
		mix = fmt.Sprintf("%.0f%% %v reads", readRatio*100, readMode)
	}
	fmt.Printf("raftkv bench: %d nodes, %d closed-loop clients, %v window, storage=%s, %s\n",
		n, clients, duration, kind, mix)
	res, err := bench.RunRaftThroughput(bench.ThroughputConfig{
		Nodes:         n,
		Clients:       clients,
		Duration:      duration,
		Seed:          seed,
		FileStorage:   disk,
		Metrics:       reg,
		Tracer:        tracer,
		Flights:       flights,
		ReadRatio:     readRatio,
		ReadMode:      readMode,
		LeaseDuration: lease,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  committed ops   %d\n", res.Ops)
	fmt.Printf("  throughput      %.0f ops/sec\n", res.OpsPerSec)
	fmt.Printf("  latency p50     %v\n", res.P50.Round(10*time.Microsecond))
	fmt.Printf("  latency p99     %v\n", res.P99.Round(10*time.Microsecond))
	if disk {
		fmt.Printf("  fsyncs          %d (%.3f per op)\n", res.Fsyncs, res.FsyncsPerOp)
	}
	fmt.Printf("  allocs per op   %.1f (process-wide)\n", res.AllocsPerOp)
	if readRatio > 0 {
		fmt.Printf("  reads/writes    %d / %d\n", res.Reads, res.Writes)
		fmt.Printf("  read p50/p99    %v / %v\n",
			res.ReadP50.Round(10*time.Microsecond), res.ReadP99.Round(10*time.Microsecond))
		fmt.Printf("  served by       lease=%d readindex=%d stale=%d forwarded=%d\n",
			res.LeaseReads, res.IndexReads, res.StaleReads, res.ForwardedReads)
	}
	return nil
}

func startNode(id int, ep *transport.Transport, kv *raft.KVStore, seed uint64, lease time.Duration, reg *metrics.Registry) (*raft.Node, error) {
	return raft.NewNode(raft.Config{
		ID:                id,
		Endpoint:          ep,
		RNG:               sim.NewRNG(seed).Fork(uint64(id)),
		ElectionTimeout:   150 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		StateMachine:      kv,
		Metrics:           reg,
		Tracer:            tracer,
		Flight:            flightFor(id),
		LeaseDuration:     lease,
	})
}

// flightFor maps an in-process node id to its recorder (server mode has
// exactly one, whatever the node's cluster id).
func flightFor(id int) *rtrace.Flight {
	if len(flights) == 1 {
		return flights[0]
	}
	if id < len(flights) {
		return flights[id]
	}
	return nil
}

func runDemo(n int, lease time.Duration, reg *metrics.Registry) error {
	fmt.Printf("starting %d-node raft kv cluster on loopback TCP...\n", n)
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

	kvs := make([]*raft.KVStore, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		kvs[id] = &raft.KVStore{}
		node, err := startNode(id, eps[id], kvs[id], 42, lease, reg)
		if err != nil {
			return err
		}
		nodes[id] = node
		node.Start(ctx)
		fmt.Printf("  node %d listening on %s\n", id, eps[id].Addr())
	}

	leader, err := awaitLeader(ctx, nodes, nil)
	if err != nil {
		return err
	}
	fmt.Printf("leader elected: node %d (term %d)\n", leader, nodes[leader].Status().Term)

	var lastIdx int
	for i := 0; i < 5; i++ {
		key, val := fmt.Sprintf("key%d", i), fmt.Sprintf("val%d", i)
		lastIdx, err = nodes[leader].Propose(ctx, raft.KVCommand{Op: "set", Key: key, Value: val})
		if err != nil {
			return fmt.Errorf("propose %s: %w", key, err)
		}
	}
	if err := awaitApplied(ctx, kvs, lastIdx, nil); err != nil {
		return err
	}
	fmt.Printf("replicated %d entries to all nodes; node %d sees %v\n", lastIdx, n-1, kvs[n-1].Snapshot())

	// A linearizable read through the fast path: no log append, no fsync —
	// one piggybacked heartbeat round confirms leadership, then the value
	// is served from the leader's local state machine.
	if _, err := nodes[leader].ReadIndex(ctx); err != nil {
		return fmt.Errorf("read index: %w", err)
	}
	if v, ok := kvs[leader].Get("key0"); ok {
		fmt.Printf("linearizable read (ReadIndex fast path): key0=%s\n", v)
	}

	fmt.Printf("crashing leader node %d...\n", leader)
	_ = eps[leader].Close()
	dead := map[int]bool{leader: true}
	leader2, err := awaitLeader(ctx, nodes, dead)
	if err != nil {
		return err
	}
	fmt.Printf("failover complete: new leader node %d (term %d)\n", leader2, nodes[leader2].Status().Term)
	lastIdx, err = nodes[leader2].Propose(ctx, raft.KVCommand{Op: "set", Key: "post-failover", Value: "ok"})
	if err != nil {
		return err
	}
	if err := awaitApplied(ctx, kvs, lastIdx, dead); err != nil {
		return err
	}
	fmt.Printf("post-failover write committed; node %d sees %v\n", leader2, kvs[leader2].Snapshot())
	fmt.Println("demo ok")
	return nil
}

func awaitLeader(ctx context.Context, nodes []*raft.Node, dead map[int]bool) (int, error) {
	for {
		if err := ctx.Err(); err != nil {
			return -1, fmt.Errorf("no leader: %w", err)
		}
		for id, node := range nodes {
			if dead[id] {
				continue
			}
			if node.Status().State == raft.Leader {
				return id, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func awaitApplied(ctx context.Context, kvs []*raft.KVStore, index int, dead map[int]bool) error {
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replication incomplete: %w", err)
		}
		done := true
		for id, kv := range kvs {
			if dead[id] {
				continue
			}
			if kv.AppliedIndex() < index {
				done = false
			}
		}
		if done {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func runServer(id int, peers []string, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	if len(peers) < 1 || peers[0] == "" {
		return fmt.Errorf("-peers is required in server mode (or use -demo)")
	}
	if readMode == raft.ReadLogCommand {
		return fmt.Errorf("-read-consistency log is a benchmark baseline; server mode serves linearizable, lease, or stale")
	}
	ep, err := transport.Listen(id, peers, transport.WithMetrics(reg))
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	kv := &raft.KVStore{}
	node, err := startNode(id, ep, kv, uint64(time.Now().UnixNano()), lease, reg)
	if err != nil {
		return err
	}
	node.Start(ctx)
	fmt.Printf("node %d serving on %s; commands: set k v | del k | get k | status | quit (reads: %v)\n",
		id, ep.Addr(), readMode)

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "set", "del":
			cmd := raft.KVCommand{Op: "set"}
			if fields[0] == "del" {
				cmd.Op = "delete"
			}
			if len(fields) < 2 {
				fmt.Println("usage: set k v | del k")
				continue
			}
			cmd.Key = fields[1]
			if len(fields) > 2 {
				cmd.Value = fields[2]
			}
			if idx, err := node.Propose(ctx, cmd); err != nil {
				fmt.Printf("error: %v\n", err)
			} else {
				fmt.Printf("proposed at index %d\n", idx)
			}
		case "get":
			if len(fields) < 2 {
				fmt.Println("usage: get k")
				continue
			}
			// Fix the read point first: ReadIndexMode returns only after
			// this node has applied through a confirmed read index (a
			// follower forwards to the leader and waits to catch up), so
			// the local Get below is linearizable. Stale mode skips the
			// coordination and reads whatever is applied locally.
			rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
			_, rerr := node.ReadIndexMode(rctx, readMode)
			rcancel()
			if rerr != nil {
				fmt.Printf("error: %v\n", rerr)
				continue
			}
			if v, ok := kv.Get(fields[1]); ok {
				fmt.Println(v)
			} else {
				fmt.Println("(not found)")
			}
		case "status":
			fmt.Println(node.Status())
		case "quit":
			return nil
		default:
			fmt.Printf("unknown command %q\n", fields[0])
		}
	}
	return sc.Err()
}
