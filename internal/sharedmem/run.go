package sharedmem

import (
	"context"
	"sync"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/sim"
)

// Processor is one processor's whole consensus run over the shared
// objects it closes over: NewConsensus(n).Run (Algorithm 2), or any other
// protocol of the same shape.
type Processor func(ctx context.Context, id int, rng *sim.RNG, v int, opts ...core.Option) (core.Decision[int], error)

// Config describes one shared-memory execution.
type Config struct {
	// Inputs holds each processor's input, indexed by id; its length is n.
	Inputs []int
	// RNG is the coin source: processor id draws from RNG.Fork(id).
	RNG *sim.RNG
	// MaxRounds bounds every processor's run; 0 means unbounded.
	MaxRounds int
}

// Run runs proc on len(cfg.Inputs) processors at once and returns when
// all of them have returned. Shared memory crashes no one, so the
// record's Crashed is all false.
func Run(ctx context.Context, cfg Config, proc Processor) checker.Execution[int] {
	n := len(cfg.Inputs)
	res := checker.Execution[int]{
		Decisions: make([]core.Decision[int], n),
		Errs:      make([]error, n),
		Crashed:   make([]bool, n),
	}
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Decisions[id], res.Errs[id] = proc(ctx, id, cfg.RNG.Fork(uint64(id)), cfg.Inputs[id], core.WithMaxRounds(cfg.MaxRounds))
		}()
	}
	wg.Wait()
	return res
}
