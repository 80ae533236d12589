package benor_test

import (
	"context"
	"fmt"
	"time"

	"ooc/internal/benor"
	"ooc/internal/sim"
)

// ExampleRunDecomposed runs the paper's Ben-Or decomposition — VAC plus
// coin-flip reconciliator under Algorithm 1 — on three simulated
// processors with unanimous inputs, which must commit in round one by VAC
// convergence.
func ExampleRunDecomposed() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := benor.Run(ctx, benor.Config[int]{T: 1, Inputs: []int{1, 1, 1}, MaxRounds: 100, Seed: 1, RNG: sim.NewRNG(1)},
		benor.RunDecomposed)
	for id, d := range res.Decisions {
		fmt.Printf("p%d: %d@%d\n", id, d.Value, d.Round)
	}
	// Output:
	// p0: 1@1
	// p1: 1@1
	// p2: 1@1
}
