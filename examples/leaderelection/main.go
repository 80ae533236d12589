// Leader election — the first application the paper's introduction
// motivates — built on the framework's multivalued consensus extension:
// every node proposes its own name, Ben-Or's vacillate-adopt-commit over
// the whole domain + the round-report reconciliator run under Algorithm 1,
// and the decided name is the leader. Crash faults included.
//
//	go run ./examples/leaderelection
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ooc/internal/benor"
	"ooc/internal/multivalue"
	"ooc/internal/sim"
	"ooc/internal/workload"
)

func main() {
	const (
		n       = 7
		tFaults = 3
	)
	candidates := []string{"ada", "bob", "cleo", "dan", "eve", "finn", "gus"}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Two candidates crash during the election; the survivors must still
	// agree on a single leader.
	res := benor.Run(ctx, benor.Config[string]{
		T:         tFaults,
		Inputs:    candidates,
		Crashes:   []workload.CrashSpec{{Node: 5, AfterSends: 10}, {Node: 6}},
		MaxRounds: 5000,
		Seed:      42,
		RNG:       sim.NewRNG(42),
	}, multivalue.RunDecomposed[string])

	fmt.Printf("candidates: %v (finn and gus crash)\n", candidates)
	leader := ""
	for id := 0; id < n; id++ {
		if res.Errs[id] != nil {
			fmt.Printf("  %s (p%d): crashed during election\n", candidates[id], id)
			continue
		}
		d := res.Decisions[id]
		fmt.Printf("  %s (p%d): elects %q (round %d)\n", candidates[id], id, d.Value, d.Round)
		if leader == "" {
			leader = d.Value
		} else if leader != d.Value {
			log.Fatalf("split election: %q vs %q", leader, d.Value)
		}
	}
	valid := false
	for _, c := range candidates {
		if c == leader {
			valid = true
		}
	}
	if !valid {
		log.Fatalf("elected a non-candidate %q", leader)
	}
	fmt.Printf("leader: %s\n", leader)
}
