// Package benor implements Ben-Or's randomized consensus (Ben-Or, PODC
// 1983) in the asynchronous message-passing model with t < n/2 crash
// failures, in two forms:
//
//   - the paper's decomposition (Section 4.2): a VacillateAdoptCommit
//     object (Algorithm 5) and a coin-flip Reconciliator (Algorithm 6),
//     run under the generic core.RunVAC template, and
//   - the classic monolithic protocol (following Aspnes's survey
//     presentation), used as the baseline the decomposition is compared
//     against in the experiments.
//
// The VAC is generic over its value type. NewVAC is the original
// binary protocol over {0, 1}; NewMultiVAC runs the same round over
// every value of its type, and internal/multivalue pairs it with a
// different reconciliator.
package benor

import "fmt"

// Report is the phase-1 message <1, v>: the sender reports its current
// preference for the round.
type Report[V comparable] struct {
	Round int
	Value V
}

// String implements fmt.Stringer for readable traces.
func (r Report[V]) String() string { return fmt.Sprintf("<1,%v>@%d", r.Value, r.Round) }

// Ratify is the phase-2 message: <2, v, ratify> when HasValue is true,
// or the question mark <2, ?> when false.
type Ratify[V comparable] struct {
	Round    int
	Value    V
	HasValue bool
}

// String implements fmt.Stringer for readable traces.
func (r Ratify[V]) String() string {
	if r.HasValue {
		return fmt.Sprintf("<2,%v,ratify>@%d", r.Value, r.Round)
	}
	return fmt.Sprintf("<2,?>@%d", r.Round)
}
