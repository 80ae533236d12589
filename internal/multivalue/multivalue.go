// Package multivalue extends the paper's framework beyond binary
// consensus to arbitrary (comparable) values in the asynchronous crash
// model, t < n/2. The vacillate-adopt-commit object is Ben-Or's own,
// benor.NewMultiVAC: phase-1 majorities are counted per value over the
// whole domain, and agreement is inherited from the binary argument
// unchanged, since two strict majorities intersect whatever the domain
// size. Only the reconciliator differs: it draws uniformly from the set
// of values this processor has *seen*, instead of flipping a coin.
//
// Drawing from the seen set preserves validity for free (every value in
// the system is some processor's input — the property the paper's
// reconciliator definition footnotes) and keeps weak agreement: reports
// are broadcast, so the live processors' seen sets converge to the same
// set, after which every round has probability at least |V|^(-n) of
// unanimity, and VAC convergence then commits.
//
// The package demonstrates what the paper's Section 6 gestures at: new
// consensus algorithms assembled by swapping one object implementation
// under the same template.
package multivalue

import (
	"context"

	"ooc/internal/benor"
	"ooc/internal/core"
	"ooc/internal/msgnet"
	"ooc/internal/sim"
)

// Reconciliator draws uniformly from the values its VAC has seen. Pair
// it with the VAC it was built from.
type Reconciliator[V comparable] struct {
	vac *benor.VAC[V]
	rng *sim.RNG
}

var _ core.Reconciliator[string] = (*Reconciliator[string])(nil)

// NewReconciliator builds the seen-set sampler for vac.
func NewReconciliator[V comparable](vac *benor.VAC[V], rng *sim.RNG) *Reconciliator[V] {
	return &Reconciliator[V]{vac: vac, rng: rng}
}

// Reconcile implements core.Reconciliator.
func (r *Reconciliator[V]) Reconcile(_ context.Context, _ core.Confidence, v V, _ int) (V, error) {
	seen := r.vac.Seen()
	if len(seen) == 0 {
		return v, nil
	}
	return seen[r.rng.Intn(len(seen))], nil
}

// RunDecomposed wires Ben-Or's VAC over V and the seen-set reconciliator
// under the generic Algorithm 1 template.
func RunDecomposed[V comparable](
	ctx context.Context,
	node msgnet.Endpoint,
	rng *sim.RNG,
	t int,
	v V,
	opts ...core.Option,
) (core.Decision[V], error) {
	vac, err := benor.NewMultiVAC[V](node, t)
	if err != nil {
		return core.Decision[V]{}, err
	}
	return core.RunVAC[V](ctx, vac, NewReconciliator[V](vac, rng), v, opts...)
}
