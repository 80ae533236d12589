// Build your own consensus from the framework's object interfaces. This
// example composes a VacillateAdoptCommit out of two shared-memory
// adopt-commit objects (the Section 5 construction) and pairs it with a
// hand-written reconciliator that flips increasingly biased coins, then
// runs the whole thing under the generic Algorithm 1 template.
//
// It is the pattern to copy when plugging a new protocol into the
// framework: implement core.VacillateAdoptCommit (or use an adapter) and
// core.Reconciliator, and the template does the rest.
//
//	go run ./examples/customobject
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"ooc/internal/adapters"
	"ooc/internal/core"
	"ooc/internal/sharedmem"
	"ooc/internal/sim"
)

// driftingCoin is a custom reconciliator: each round it flips a coin that
// drifts toward 1, so stalemates break faster than with a fair coin (at
// the price of biasing which value wins contested runs).
type driftingCoin struct {
	rng *sim.RNG
}

var _ core.Reconciliator[int] = (*driftingCoin)(nil)

func (c *driftingCoin) Reconcile(_ context.Context, _ core.Confidence, _ int, round int) (int, error) {
	p := 0.5 + 0.4*float64(min(round, 10))/10.0
	if c.rng.Float64() < p {
		return 1, nil
	}
	return 0, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func main() {
	const n = 4
	inputs := []int{0, 1, 1, 0}

	// Two independent adopt-commit objects per round, shared by all
	// processors — the substrate the composite VAC is built from.
	store1 := sharedmem.NewACStore(n)
	store2 := sharedmem.NewACStore(n)
	proc := func(ctx context.Context, id int, rng *sim.RNG, v int, opts ...core.Option) (core.Decision[int], error) {
		// The Section 5 construction: commit iff both ACs commit,
		// adopt iff only the second does, vacillate otherwise.
		vac := adapters.NewVACFromACs[int](store1.Object(id), store2.Object(id))
		return core.RunVAC[int](ctx, vac, &driftingCoin{rng: rng}, v, opts...)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// sharedmem.Run runs proc on every processor at once, each with its
	// own coin stream.
	res := sharedmem.Run(ctx, sharedmem.Config{Inputs: inputs, RNG: sim.NewRNG(123), MaxRounds: 500}, proc)
	if err := errors.Join(res.Errs...); err != nil {
		log.Fatal(err)
	}
	decisions := res.Decisions

	fmt.Printf("inputs: %v\n", inputs)
	for id, d := range decisions {
		fmt.Printf("  p%d: decided %d in round %d\n", id, d.Value, d.Round)
	}
	for _, d := range decisions[1:] {
		if d.Value != decisions[0].Value {
			log.Fatal("agreement violated")
		}
	}
	fmt.Printf("consensus value: %d\n", decisions[0].Value)
}
