// Package multivalue extends the paper's framework beyond binary
// consensus to arbitrary (comparable) values in the asynchronous crash
// model, t < n/2. The vacillate-adopt-commit object is Ben-Or's own,
// benor.NewMultiVAC: phase-1 majorities are counted per value over the
// whole domain, and agreement is inherited from the binary argument
// unchanged, since two strict majorities intersect whatever the domain
// size. Only the reconciliator differs: instead of flipping a coin it
// draws one of the round's counted reports, a value in proportion to its
// reporters (voter-model dynamics). That keeps validity for free (every
// report carries a preference that began as some input — the property
// the paper's reconciliator definition footnotes) and weak agreement:
// all vacillators drawing one value has positive probability whatever
// the domain size, and a unanimous round commits by VAC convergence.
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

// Reconciliator draws uniformly from the reports its VAC counted in the
// round (its own value before any round). Pair it with that VAC.
type Reconciliator[V comparable] struct {
	vac *benor.VAC[V]
	rng *sim.RNG
}

var _ core.Reconciliator[string] = (*Reconciliator[string])(nil)

// NewReconciliator builds the round-report sampler for vac.
func NewReconciliator[V comparable](vac *benor.VAC[V], rng *sim.RNG) *Reconciliator[V] {
	return &Reconciliator[V]{vac: vac, rng: rng}
}

// Reconcile implements core.Reconciliator.
func (r *Reconciliator[V]) Reconcile(_ context.Context, _ core.Confidence, v V, _ int) (V, error) {
	reports := r.vac.Reports()
	if len(reports) == 0 {
		return v, nil
	}
	return reports[r.rng.Intn(len(reports))], nil
}

// RunDecomposed wires Ben-Or's VAC over V and the round-report reconciliator
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
	return vac.Consensus(ctx, NewReconciliator[V](vac, rng), v, opts...)
}
