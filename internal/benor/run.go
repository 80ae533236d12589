package benor

import (
	"context"
	"sync"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/workload"
)

// Processor is one processor's whole consensus run on its endpoint:
// RunDecomposed, RunMonolithic, multivalue.RunDecomposed[V], or any other
// protocol of the same shape.
type Processor[V comparable] func(ctx context.Context, node msgnet.Endpoint, rng *sim.RNG, t int, v V, opts ...core.Option) (core.Decision[V], error)

// Config describes one simulated asynchronous execution.
type Config[V comparable] struct {
	// T is the crash bound handed to every processor.
	T int
	// Inputs holds each processor's input, indexed by id; its length is n.
	Inputs []V
	// Crashes is the crash plan the network carries out.
	Crashes []workload.CrashSpec
	// MaxRounds bounds every processor's run; 0 means unbounded.
	MaxRounds int
	// Seed fixes the network's delivery order.
	Seed uint64
	// RNG is the coin source: processor id draws from RNG.Fork(id).
	RNG *sim.RNG
	// Recorder, if non-nil, receives the network's messages and every
	// processor's template events.
	Recorder *trace.Recorder
	// Metrics, if non-nil, receives the network's and the processors'
	// telemetry.
	Metrics *metrics.Registry
}

// Run builds a seeded simulated network of len(cfg.Inputs) processors,
// applies the crash plan, runs proc on every processor at once, and
// returns when all of them have returned.
func Run[V comparable](ctx context.Context, cfg Config[V], proc Processor[V]) checker.Execution[V] {
	n := len(cfg.Inputs)
	nw := netsim.New(n, netsim.WithSeed(cfg.Seed), netsim.WithRecorder(cfg.Recorder), netsim.WithMetrics(cfg.Metrics))
	res := checker.Execution[V]{
		Decisions: make([]core.Decision[V], n),
		Errs:      make([]error, n),
		Crashed:   make([]bool, n),
	}
	for _, c := range cfg.Crashes {
		res.Crashed[c.Node] = true
		if c.AfterSends == 0 {
			nw.Crash(c.Node)
		} else {
			nw.CrashAfterSends(c.Node, c.AfterSends)
		}
	}
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Decisions[id], res.Errs[id] = proc(ctx, nw.Node(id), cfg.RNG.Fork(uint64(id)), cfg.T, cfg.Inputs[id],
				core.WithMaxRounds(cfg.MaxRounds), core.WithRecorder(cfg.Recorder, id), core.WithMetrics(cfg.Metrics))
		}()
	}
	wg.Wait()
	return res
}
