// Package adapters implements the object algebra of the paper's
// Section 5, which relates the two agreement detectors:
//
//   - ACFromVAC shows VAC is at least as strong as AC: forgetting the
//     vacillate/adopt distinction yields a correct adopt-commit object.
//   - VACFromACs shows AC is "only slightly weaker": two adopt-commit
//     objects chained per round implement a correct VAC.
package adapters

import (
	"context"
	"fmt"

	"ooc/internal/core"
)

// ACFromVAC turns a vacillate-adopt-commit object into an adopt-commit
// object by mapping vacillate to adopt.
//
// Correctness: AC coherence follows from VAC coherence over adopt &
// commit (a commit fixes everyone's value, and no level maps above
// adopt); convergence and validity are inherited verbatim.
type ACFromVAC[V comparable] struct {
	vac core.VacillateAdoptCommit[V]
}

var _ core.AdoptCommit[int] = (*ACFromVAC[int])(nil)

// NewACFromVAC wraps vac as an AdoptCommit.
func NewACFromVAC[V comparable](vac core.VacillateAdoptCommit[V]) *ACFromVAC[V] {
	return &ACFromVAC[V]{vac: vac}
}

// Propose implements core.AdoptCommit.
func (a *ACFromVAC[V]) Propose(ctx context.Context, v V, round int) (core.Confidence, V, error) {
	x, u, err := a.vac.Propose(ctx, v, round)
	if err != nil {
		return 0, u, err
	}
	if x == core.Vacillate {
		x = core.Adopt
	}
	return x, u, nil
}

// VACFromACs builds a vacillate-adopt-commit object from two adopt-commit
// objects invoked in sequence each round:
//
//	VAC(v, m):
//	  (c1, u) ← AC1(v, m)
//	  (c2, w) ← AC2(u, m)
//	  if c1 = commit and c2 = commit: return (commit, w)
//	  if c2 = commit:                 return (adopt, w)
//	  else:                           return (vacillate, w)
//
// Why the guarantees hold:
//
//   - Coherence over adopt & commit: if p returns commit, p's AC1
//     committed u, so by AC1 coherence every processor left AC1 with u
//     and fed u into AC2; by AC2 convergence everyone's c2 = commit with
//     value u — so every processor returns (commit, u) or (adopt, u),
//     never vacillate.
//   - Coherence over vacillate & adopt: if nobody committed and p
//     returns (adopt, w), p's AC2 committed w, so by AC2 coherence every
//     processor's AC2 value is w; adopt-returners therefore all carry w,
//     and vacillate-returners may carry anything valid.
//   - Convergence: unanimous v commits through both ACs.
//   - Validity and termination are inherited.
//
// The brief announcement asserts this construction exists ("as we have
// shown") without giving it; the construction above is property-tested in
// this repository against adversarial schedules.
type VACFromACs[V comparable] struct {
	ac1, ac2 core.AdoptCommit[V]
}

var _ core.VacillateAdoptCommit[int] = (*VACFromACs[int])(nil)

// NewVACFromACs builds the VAC from two independent AdoptCommit objects.
// The two must be distinct objects (distinct protocol instances): reusing
// one object for both stages breaks round bookkeeping.
func NewVACFromACs[V comparable](ac1, ac2 core.AdoptCommit[V]) *VACFromACs[V] {
	return &VACFromACs[V]{ac1: ac1, ac2: ac2}
}

// Propose implements core.VacillateAdoptCommit.
func (va *VACFromACs[V]) Propose(ctx context.Context, v V, round int) (core.Confidence, V, error) {
	c1, u, err := va.ac1.Propose(ctx, v, round)
	if err != nil {
		return 0, u, fmt.Errorf("adapters: first AC: %w", err)
	}
	if c1 == core.Vacillate {
		return 0, u, fmt.Errorf("adapters: first AC returned vacillate: %w", core.ErrContractViolation)
	}
	c2, w, err := va.ac2.Propose(ctx, u, round)
	if err != nil {
		return 0, w, fmt.Errorf("adapters: second AC: %w", err)
	}
	if c2 == core.Vacillate {
		return 0, w, fmt.Errorf("adapters: second AC returned vacillate: %w", core.ErrContractViolation)
	}
	switch {
	case c1 == core.Commit && c2 == core.Commit:
		return core.Commit, w, nil
	case c2 == core.Commit:
		return core.Adopt, w, nil
	default:
		return core.Vacillate, w, nil
	}
}
