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
	"sync"
	"time"

	"ooc/internal/core"
	"ooc/internal/multivalue"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

func main() {
	const (
		n       = 7
		tFaults = 3
	)
	candidates := []string{"ada", "bob", "cleo", "dan", "eve", "finn", "gus"}

	nw := netsim.New(n, netsim.WithSeed(42))
	rng := sim.NewRNG(42)

	// Two candidates crash during the election; the survivors must still
	// agree on a single leader.
	nw.CrashAfterSends(5, 10)
	nw.Crash(6)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	decisions := make([]core.Decision[string], n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			decisions[id], errs[id] = multivalue.RunDecomposed[string](
				ctx, nw.Node(id), rng.Fork(uint64(id)), tFaults, candidates[id],
				core.WithMaxRounds(5000),
			)
		}(id)
	}
	wg.Wait()

	fmt.Printf("candidates: %v (finn and gus crash)\n", candidates)
	leader := ""
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			fmt.Printf("  %s (p%d): crashed during election\n", candidates[id], id)
			continue
		}
		d := decisions[id]
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
