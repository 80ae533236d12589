package ooc

// One benchmark per experiment in DESIGN.md §5. Each iteration runs a
// single representative trial of the experiment's workload; the full
// sweeps and tables come from `go run ./cmd/oocbench`. Benchmarks assert
// safety on every iteration, so `go test -bench=.` doubles as a stress
// run.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooc/internal/adapters"
	"ooc/internal/bench"
	"ooc/internal/benor"
	"ooc/internal/checker"
	"ooc/internal/codec"
	"ooc/internal/multivalue"
	"ooc/internal/netsim"
	"ooc/internal/phaseking"
	"ooc/internal/raft"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// benOrTrial runs one full Ben-Or consensus (decomposed or monolithic)
// under the given seed.
func benOrTrial(b *testing.B, decomposed bool, n int, split workload.Split, seed uint64) {
	rng := sim.NewRNG(seed)
	inputs := workload.BinaryInputs(split, n, rng)
	proc := benor.RunMonolithic
	if decomposed {
		proc = benor.RunDecomposed
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res := benor.Run(ctx, benor.Config[int]{T: (n - 1) / 2, Inputs: inputs, MaxRounds: 5000, Seed: seed, RNG: rng}, proc)
	if rep := checker.CheckConsensus(res.Outcomes(), workload.InputsToMap(inputs), true); !rep.Ok() {
		b.Errorf("%v (errors %v)", rep, res.Errs)
	}
}

// benchBenOr iterates benOrTrial over per-iteration seeds.
func benchBenOr(b *testing.B, decomposed bool, n int, split workload.Split) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benOrTrial(b, decomposed, n, split, uint64(i)+1)
	}
}

// mustAgreeAll fails b unless every processor of res decided one value.
func mustAgreeAll[V comparable](b *testing.B, res checker.Execution[V]) {
	b.Helper()
	if err := errors.Join(res.Errs...); err != nil {
		b.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Value != res.Decisions[0].Value {
			b.Fatal("agreement violated")
		}
	}
}

// benchBenOrSeedSweepParallel is the multi-seed sweep variant: concurrent
// goroutines drain a shared atomic seed counter, each running a fully
// independent seeded trial — the b.RunParallel analogue of the experiment
// harness's cell pool. Throughput scales with GOMAXPROCS because trials
// share no network, recorder, or RNG state.
func benchBenOrSeedSweepParallel(b *testing.B, n int, split workload.Split) {
	b.Helper()
	b.ReportAllocs()
	var seedCtr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benOrTrial(b, true, n, split, seedCtr.Add(1))
		}
	})
}

// BenchmarkE1BenOrSeedSweepParallel: experiment E1's workload as a
// parallel multi-seed sweep (n=5, half split).
func BenchmarkE1BenOrSeedSweepParallel(b *testing.B) {
	benchBenOrSeedSweepParallel(b, 5, workload.SplitHalf)
}

// BenchmarkE9SeedSweepParallel: experiment E9's heavy-tail workload as a
// parallel multi-seed sweep (n=9, half split).
func BenchmarkE9SeedSweepParallel(b *testing.B) {
	benchBenOrSeedSweepParallel(b, 9, workload.SplitHalf)
}

// BenchmarkE1BenOrDecomposed: experiment E1 — the paper's Ben-Or under
// Algorithm 1 (n=5, adversarial half split).
func BenchmarkE1BenOrDecomposed(b *testing.B) {
	benchBenOr(b, true, 5, workload.SplitHalf)
}

// BenchmarkE2BenOrBaseline: experiment E2 — the monolithic baseline on
// the identical workload.
func BenchmarkE2BenOrBaseline(b *testing.B) {
	benchBenOr(b, false, 5, workload.SplitHalf)
}

// benchPhaseKing runs one full Phase-King consensus.
func benchPhaseKing(b *testing.B, baseline bool) {
	b.Helper()
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		cfg := phaseking.Config{
			N: 7, T: 2,
			Inputs:    map[int]int{2: 0, 3: 1, 4: 0, 5: 1, 6: 0},
			Byzantine: map[int]phaseking.Adversary{0: phaseking.EquivocateAdversary{}, 1: phaseking.SilentAdversary{}},
			Rule:      phaseking.RuleFinalValue,
		}
		var (
			res phaseking.Result
			err error
		)
		if baseline {
			res, err = phaseking.RunBaseline(ctx, cfg)
		} else {
			res, err = phaseking.Run(ctx, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errs) > 0 || !res.AgreementHolds() {
			b.Fatalf("bad run: %+v", res)
		}
	}
}

// BenchmarkE3PhaseKing: experiment E3 — decomposed Phase-King (n=7, t=2,
// equivocate + silent Byzantine kings).
func BenchmarkE3PhaseKing(b *testing.B) {
	benchPhaseKing(b, false)
}

// BenchmarkE4PhaseKingBaseline: experiment E4 — the monolithic baseline.
func BenchmarkE4PhaseKingBaseline(b *testing.B) {
	benchPhaseKing(b, true)
}

// BenchmarkEAKingDiversion: experiment EA — the attack run (decomposed,
// first-commit rule). Each iteration reproduces the agreement violation.
func BenchmarkEAKingDiversion(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := phaseking.Run(ctx, phaseking.Config{
			N: 4, T: 1,
			Inputs:    map[int]int{1: 0, 2: 0, 3: 1},
			Byzantine: map[int]phaseking.Adversary{0: phaseking.KingDiversionAdversary()},
			Rule:      phaseking.RuleFirstCommit,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.AgreementHolds() {
			b.Fatal("attack did not reproduce")
		}
	}
}

// BenchmarkE5RaftConsensus: experiment E5 — Raft single-decree consensus
// via D&S (n=3, real timers on the simulated network).
func BenchmarkE5RaftConsensus(b *testing.B) {
	benchmarkRaft(b, raft.Decree[string]{})
}

// BenchmarkE6RaftVAC: experiment E6 — the VAC view of Raft under the
// generic template (n=3).
func BenchmarkE6RaftVAC(b *testing.B) {
	benchmarkRaft(b, raft.VACConsensus[string]{})
}

// benchmarkRaft runs one n=3 execution of proc per iteration.
func benchmarkRaft(b *testing.B, proc raft.Processor[string]) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res := raft.Run(ctx, raft.RunConfig[string]{Inputs: []string{"v0", "v1", "v2"}, Seed: uint64(i) + 1,
			ElectionTimeout: 20 * time.Millisecond, HeartbeatInterval: 4 * time.Millisecond}, proc)
		cancel()
		mustAgreeAll(b, res)
	}
}

// BenchmarkE7VACFromAC: experiment E7 — one round of the Section 5
// composite VAC over shared-memory ACs (n=8, concurrent).
func BenchmarkE7VACFromAC(b *testing.B) {
	b.ReportAllocs()
	const n = 8
	rng := sim.NewRNG(3)
	for i := 0; i < b.N; i++ {
		store1 := sharedmem.NewACStore(n)
		store2 := sharedmem.NewACStore(n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id, v int) {
				defer wg.Done()
				vac := adapters.NewVACFromACs[int](store1.Object(id), store2.Object(id))
				if _, _, err := vac.Propose(context.Background(), v, 1); err != nil {
					b.Error(err)
				}
			}(id, rng.Bit())
		}
		wg.Wait()
	}
}

// BenchmarkE8OutcomeClasses: experiment E8 — one traced Ben-Or run per
// iteration, counting the three outcome classes from the template's
// record of the VAC's returns.
func BenchmarkE8OutcomeClasses(b *testing.B) {
	b.ReportAllocs()
	const n, tFaults = 5, 2
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		rng := sim.NewRNG(seed)
		rec := trace.NewRecorder()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res := benor.Run(ctx, benor.Config[int]{T: tFaults, Inputs: workload.BinaryInputs(workload.SplitHalf, n, rng),
			MaxRounds: 5000, Seed: seed, RNG: rng, Recorder: rec}, benor.RunDecomposed)
		cancel()
		if err := errors.Join(res.Errs...); err != nil {
			b.Fatal(err)
		}
		if len(bench.OutcomeClasses(rec.Snapshot(), "vac")) == 0 {
			b.Fatal("no outcomes recorded")
		}
	}
}

// BenchmarkE9RoundsToConsensus: experiment E9 — one half-split Ben-Or run
// at n=9 per iteration (the heavy tail the distribution table measures).
func BenchmarkE9RoundsToConsensus(b *testing.B) {
	benchBenOr(b, true, 9, workload.SplitHalf)
}

// BenchmarkE10MessageComplexity: experiment E10 — one traced Ben-Or run,
// reporting messages per operation.
func BenchmarkE10MessageComplexity(b *testing.B) {
	b.ReportAllocs()
	tbl, err := bench.RunE10(bench.Suite{Trials: 1, Quick: true, BaseSeed: uint64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		b.Fatal("no rows")
	}
	b.ResetTimer()
	benchBenOr(b, true, 5, workload.SplitHalf)
}

// BenchmarkF1RaftMessageCodec: figure F1 — all four Raft message formats
// round-trip through the wire codec.
func BenchmarkF1RaftMessageCodec(b *testing.B) {
	b.ReportAllocs()
	msgs := []any{
		raft.RequestVote{Term: 3, CandidateID: 1, LastLogIndex: 7, LastLogTerm: 2},
		raft.RequestVoteReply{Term: 3, VoteGranted: true},
		raft.AppendEntries{Term: 3, LeaderID: 1, PrevLogIndex: 6, PrevLogTerm: 2,
			Entries: []raft.Entry{{Term: 3, Command: raft.DS{Value: "v"}}}, LeaderCommit: 6},
		raft.AppendEntriesReply{Term: 3, Success: true, MatchIndex: 7},
	}
	var frame []byte
	var dec codec.Decoder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			var err error
			if frame, err = codec.Append(frame[:0], m); err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkF2RaftStateMachine: figure F2 — a full election + replication
// cycle driving every Figure 2 state variable.
func BenchmarkF2RaftStateMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const n = 3
		seed := uint64(i) + 1
		nw := netsim.New(n, netsim.WithSeed(seed))
		rng := sim.NewRNG(seed)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		kvs := make([]*raft.KVStore, n)
		nodes := make([]*raft.Node, n)
		for id := 0; id < n; id++ {
			kvs[id] = &raft.KVStore{}
			node, err := raft.NewNode(raft.Config{
				ID:                id,
				Endpoint:          nw.Node(id),
				RNG:               rng.Fork(uint64(id)),
				ElectionTimeout:   20 * time.Millisecond,
				HeartbeatInterval: 4 * time.Millisecond,
				StateMachine:      kvs[id],
			})
			if err != nil {
				b.Fatal(err)
			}
			nodes[id] = node
			node.Start(ctx)
		}
		var idx int
		for {
			leader := -1
			for id, node := range nodes {
				if node.Status().State == raft.Leader {
					leader = id
				}
			}
			if leader >= 0 {
				var err error
				idx, err = nodes[leader].Propose(ctx, raft.KVCommand{Op: "set", Key: "k", Value: "v"})
				if err == nil {
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
		for done := false; !done; {
			done = true
			for _, kv := range kvs {
				if kv.AppliedIndex() < idx {
					done = false
				}
			}
			if !done {
				time.Sleep(time.Millisecond)
			}
		}
		cancel()
	}
}

// BenchmarkE11Multivalued: experiment E11 — one multivalued consensus
// run (n=5, 3-value domain) per iteration.
func BenchmarkE11Multivalued(b *testing.B) {
	b.ReportAllocs()
	const n, tFaults = 5, 2
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		rng := sim.NewRNG(seed)
		inputs := make([]string, n)
		for id := range inputs {
			inputs[id] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res := benor.Run(ctx, benor.Config[string]{T: tFaults, Inputs: inputs, MaxRounds: 20000, Seed: seed, RNG: rng},
			multivalue.RunDecomposed[string])
		cancel()
		mustAgreeAll(b, res)
	}
}

// BenchmarkE12SharedMemory: experiment E12 — one shared-memory consensus
// (Gafni AC + probabilistic-write conciliator, n=8) per iteration.
func BenchmarkE12SharedMemory(b *testing.B) {
	b.ReportAllocs()
	const n = 8
	inputs := make([]int, n)
	for id := range inputs {
		inputs[id] = id % 2
	}
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res := sharedmem.Run(ctx, sharedmem.Config{Inputs: inputs, RNG: sim.NewRNG(uint64(i) + 1), MaxRounds: 20000},
			sharedmem.NewConsensus(n).Run)
		cancel()
		mustAgreeAll(b, res)
	}
}

// BenchmarkE14RaftThroughput: experiment E14 — one closed-loop throughput
// window against a FileStorage-backed one-group shard.Cluster, the
// group-commit and pipelining hot path. Reports committed ops/sec and
// fsyncs per op.
func BenchmarkE14RaftThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMultiShard(bench.MultiShardConfig{
			Nodes:           3,
			Shards:          1,
			ClientsPerShard: 8,
			Duration:        200 * time.Millisecond,
			Seed:            uint64(i) + 1,
			FileStorage:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("no ops committed")
		}
		b.ReportMetric(res.OpsPerSec, "ops/sec")
		b.ReportMetric(res.FsyncsPerOp, "fsyncs/op")
	}
}

// BenchmarkE16MultiShard: experiment E16 — one closed-loop multi-Raft
// window (4 shards over 3 nodes, file storage) with all of a node's
// replicas sharing one modeled 2ms device. Asserts the shard router
// spread work across groups and leadership across nodes, and that the
// node-wide syncer recorded barriers and merged flushes (mean barrier
// width above 1); reports aggregate committed ops/sec plus the
// device-barrier cost per op.
func BenchmarkE16MultiShard(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMultiShard(bench.MultiShardConfig{
			Nodes:           3,
			Shards:          4,
			ClientsPerShard: 1,
			Duration:        200 * time.Millisecond,
			Seed:            uint64(i) + 1,
			FileStorage:     true,
			DeviceLatency:   2 * time.Millisecond,
			ElectionTimeout: 150 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("no ops committed")
		}
		for s, n := range res.PerShardOps {
			if n == 0 {
				b.Fatalf("shard %d committed nothing: router funnelled %v", s, res.PerShardOps)
			}
		}
		if res.LeaderSpread < 2 {
			b.Fatalf("leaders on %d node(s), placement %v", res.LeaderSpread, res.LeaderPlacement)
		}
		if res.Barriers == 0 {
			b.Fatal("no device barriers recorded: syncer not wired")
		}
		if res.MeanWidth <= 1.0 {
			b.Fatalf("no cross-group coalescing: mean barrier width %.2f over %d barriers",
				res.MeanWidth, res.Barriers)
		}
		b.ReportMetric(res.OpsPerSec, "ops/sec")
		b.ReportMetric(res.FsyncsPerOp, "fsyncs/op")
		b.ReportMetric(res.BarriersPerOp, "barriers/op")
		b.ReportMetric(res.MeanWidth, "width")
	}
}

// BenchmarkE15ReadFastPath runs E15's two linearizable rows, each on its
// own served path: ReadIndex rounds with no lease, and 15 ms leases.
func BenchmarkE15ReadFastPath(b *testing.B) {
	for _, mode := range []raft.ReadConsistency{raft.ReadLinearizable, raft.ReadLease} {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := bench.MultiShardConfig{
					Nodes:           3,
					Shards:          1,
					ClientsPerShard: 8,
					Duration:        200 * time.Millisecond,
					Seed:            uint64(i) + 1,
					FileStorage:     true,
					ReadRatio:       0.9,
					ReadMode:        mode,
					Keys:            256,
				}
				if mode == raft.ReadLease {
					cfg.LeaseDuration = 15 * time.Millisecond
				}
				res, err := bench.RunMultiShard(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Ops == 0 {
					b.Fatal("no ops completed")
				}
				switch {
				case mode == raft.ReadLinearizable && (res.IndexReads == 0 || res.LeaseReads > 0):
					b.Fatalf("linearizable row served %d reads by ReadIndex and %d by lease, want > 0 and 0",
						res.IndexReads, res.LeaseReads)
				case mode == raft.ReadLease && res.LeaseReads == 0:
					b.Fatalf("lease row served no read by lease (%d by ReadIndex)", res.IndexReads)
				}
				b.ReportMetric(res.OpsPerSec, "ops/sec")
				b.ReportMetric(res.ReadP50.Seconds()*1e3, "read-p50-ms")
			}
		})
	}
}
