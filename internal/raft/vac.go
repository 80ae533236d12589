package raft

import (
	"context"
	"fmt"

	"ooc/internal/core"
)

// VAC is the paper's Algorithm 10: Raft's candidate → leader → commit
// pipeline viewed as a vacillate-adopt-commit object. Each Propose call
// waits for this processor's next observable outcome:
//
//   - the election timer fires without progress → (vacillate, v): the
//     processor has no guarantee about the system state;
//   - a D&S entry lands in the log (the first kind of AppendEntries, or
//     the leader's own append) → (adopt, u): within the entry's term all
//     such appends carry the same value, since Raft elects at most one
//     leader per term;
//   - the commit index covers a D&S entry (the second kind of
//     AppendEntries, or the leader counting a majority) → (commit, u):
//     leader completeness and state machine safety guarantee every other
//     processor converges on u.
//
// The paper's caveats carry over: rounds correspond to terms only
// loosely, and convergence does not hold as-is ("the algorithm was made
// for real world log consistency rather than theoretical consensus") —
// even on unanimous inputs a leader must first be elected. Level
// coherence between vacillate and commit is likewise only eventual: a
// processor may time out while a commit it has not yet heard about
// exists. Value coherence — every adopt/commit of the same term carries
// one value, and all commits ever carry one value — is exact, and is what
// the tests verify.
//
// The node must run in ManualCampaign mode: the timer's only job is to
// report vacillation, and the Reconciliator owns the response.
type VAC[V comparable] struct {
	node *Node
	sub  *Subscription
}

var _ core.VacillateAdoptCommit[int] = (*VAC[int])(nil)

// NewVAC wraps a started-or-startable ManualCampaign node. Subscribe
// happens here, so construct the VAC before calling node.Start to avoid
// missing early events.
func NewVAC[V comparable](node *Node) (*VAC[V], error) {
	if !node.cfg.ManualCampaign {
		return nil, fmt.Errorf("raft: VAC requires a ManualCampaign node")
	}
	return &VAC[V]{node: node, sub: node.Subscribe()}, nil
}

// Propose implements core.VacillateAdoptCommit. The input v is only a
// fallback preference: Raft derives values from the log, so v matters
// when this processor later campaigns (via the Reconciliator).
func (va *VAC[V]) Propose(ctx context.Context, v V, _ int) (core.Confidence, V, error) {
	for {
		ev, err := va.sub.Next(ctx)
		if err != nil {
			return 0, v, fmt.Errorf("raft: vac: %w", err)
		}
		switch ev.Kind {
		case EventTimeout:
			return core.Vacillate, v, nil
		case EventAppended:
			if u, ok := dsValue[V](ev.Command); ok {
				return core.Adopt, u, nil
			}
		case EventCommitted:
			if u, ok := dsValue[V](ev.Command); ok {
				return core.Commit, u, nil
			}
		}
	}
}

// dsValue extracts the typed value from a D&S command.
func dsValue[V comparable](cmd any) (V, bool) {
	var zero V
	ds, ok := cmd.(DS)
	if !ok {
		return zero, false
	}
	u, ok := ds.Value.(V)
	if !ok {
		return zero, false
	}
	return u, true
}

// Reconciliator is the paper's Algorithm 11: "Reset timer and update
// term; D&S(v) ← log[lastLogIndex]; return v". Operationally: restart the
// protocol by campaigning with our current preference; if this processor
// wins the election it proposes D&S(v). Weak agreement comes from the
// randomized timers (the paper's timing property): eventually some
// campaigner wins a full term and drives everyone to its value.
type Reconciliator[V comparable] struct {
	node *Node
}

var _ core.Reconciliator[int] = (*Reconciliator[int])(nil)

// NewReconciliator builds the timer-reset reconciliator for node.
func NewReconciliator[V comparable](node *Node) *Reconciliator[V] {
	return &Reconciliator[V]{node: node}
}

// Reconcile implements core.Reconciliator.
func (r *Reconciliator[V]) Reconcile(_ context.Context, _ core.Confidence, v V, _ int) (V, error) {
	r.node.Campaign(DS{Value: v})
	return v, nil
}
