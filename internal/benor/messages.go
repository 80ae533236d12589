// Package benor implements Ben-Or's randomized binary consensus
// (Ben-Or, PODC 1983) in the asynchronous message-passing model with
// t < n/2 crash failures, in two forms:
//
//   - the paper's decomposition (Section 4.2): a VacillateAdoptCommit
//     object (Algorithm 5) and a coin-flip Reconciliator (Algorithm 6),
//     run under the generic core.RunVAC template, and
//   - the classic monolithic protocol (following Aspnes's survey
//     presentation), used as the baseline the decomposition is compared
//     against in the experiments.
//
// Values are binary (0 or 1), as in the original protocol.
package benor

import "fmt"

// Report is the phase-1 message <1, v>: the sender reports its current
// preference for the round.
type Report struct {
	Round int
	Value int
}

// String implements fmt.Stringer for readable traces.
func (r Report) String() string { return fmt.Sprintf("<1,%d>@%d", r.Value, r.Round) }

// Ratify is the phase-2 message: <2, v, ratify> when HasValue is true,
// or the question mark <2, ?> when false.
type Ratify struct {
	Round    int
	Value    int
	HasValue bool
}

// String implements fmt.Stringer for readable traces.
func (r Ratify) String() string {
	if r.HasValue {
		return fmt.Sprintf("<2,%d,ratify>@%d", r.Value, r.Round)
	}
	return fmt.Sprintf("<2,?>@%d", r.Round)
}
