// Command raftkv is a replicated key-value store over real TCP — the
// kind of application log Raft was designed for (paper §4.3).
//
// Demo mode runs a whole shard.Cluster in one process on loopback
// sockets, exercises routed replication and leader failover, and exits:
//
//	raftkv -demo -n 5 -shards 2
//
// Bench mode runs the closed-loop benchmark (experiments E14–E16) on the
// same builder over a simulated network:
//
//	raftkv -bench -clients 32 -duration 2s
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

	"ooc/internal/metrics"
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
// per barrier for the bench (the E16 fixture). shardTrace is the bench's
// protocol recorder (non-nil only when -shard-trace-out is set): it
// captures mux-tagged message events, the input for ooctrace's
// per-channel traffic table.
var (
	deviceLatency time.Duration
	shardTrace    *trace.Recorder
)

// writeShardTrace dumps the bench's protocol trace to path.
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
		n         = flag.Int("n", 3, "demo and bench cluster size")
		id        = flag.Int("id", 0, "this node's index into -peers")
		peers     = flag.String("peers", "", "comma-separated cluster addresses, indexed by node id")
		telemetry = flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
		benchMode = flag.Bool("bench", false, "run the closed-loop throughput benchmark and exit")
		clients   = flag.Int("clients", 8, "bench mode: concurrent closed-loop clients per shard")
		duration  = flag.Duration("duration", time.Second, "bench mode: measurement window")
		diskStore = flag.Bool("disk", true, "bench mode: persist through FileStorage (fsync path); false = MemStorage")
		seed      = flag.Uint64("seed", 1, "bench mode: simulation seed")
		readCons  = flag.String("read-consistency", "linearizable", "how get serves reads: linearizable | lease | stale")
		lease     = flag.Duration("lease", 0, "leader lease duration (0 disables; reads with -read-consistency lease skip the quorum round while it holds)")
		readRatio = flag.Float64("read-ratio", 0, "bench mode: fraction of ops that are reads (0 = write-only E14 loop)")
		shards    = flag.Int("shards", 1, "split the keyspace across this many independent Raft groups (demo and bench modes)")
		sample    = flag.Float64("trace-sample", 0, "per-request tracing sample rate in [0,1]; 0 disables (span timelines dump to -trace-out for ooctrace -request)")
		traceOut  = flag.String("trace-out", "", "write sampled span timelines to this JSON file on exit (requires -trace-sample > 0)")
		flightDir = flag.String("flight-dir", "", "arm per-node flight recorders dumping recent events to this directory on anomalies (elections, lease expiries, mux backlog drops)")
		devLat    = flag.Duration("device-latency", 0, "bench mode: model one shared storage device per node with this latency per durability barrier (the E16 fixture; 0 disables)")
		shardTr   = flag.String("shard-trace-out", "", "bench mode: write the protocol trace (mux-tagged message events) to this JSON file for ooctrace's channel table")
	)
	flag.Parse()
	deviceLatency = *devLat
	if *shardTr != "" {
		if !*benchMode {
			fmt.Fprintln(os.Stderr, "raftkv: -shard-trace-out needs -bench")
			os.Exit(1)
		}
		shardTrace = trace.NewTimedRecorder()
	}

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
	case *benchMode:
		err = runMultiShardBench(*n, *shards, *clients, *duration, *diskStore, *seed, *readRatio, readMode, *lease, reg)
	case *demo:
		err = runClusterDemo(os.Stdout, *n, *shards, readMode, *lease, reg)
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

// startNode builds server mode's one node: a single Raft group on its
// own transport, not an in-process cluster.
func startNode(id int, ep *transport.Transport, kv *raft.KVStore, seed uint64, lease time.Duration, reg *metrics.Registry) (*raft.Node, error) {
	var flight *rtrace.Flight
	if len(flights) > 0 {
		flight = flights[0]
	}
	return raft.NewNode(raft.Config{
		ID:                id,
		Endpoint:          ep,
		RNG:               sim.NewRNG(seed).Fork(uint64(id)),
		ElectionTimeout:   150 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		StateMachine:      kv,
		Metrics:           reg,
		Tracer:            tracer,
		Flight:            flight,
		LeaseDuration:     lease,
	})
}

func runServer(id int, peers []string, readMode raft.ReadConsistency, lease time.Duration, reg *metrics.Registry) error {
	if len(peers) < 1 || peers[0] == "" {
		return fmt.Errorf("-peers is required in server mode (or use -demo)")
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
