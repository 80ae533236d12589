package benor

import (
	"context"
	"fmt"
	"slices"

	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
)

// VAC is the paper's Algorithm 5: Ben-Or's round body packaged as a
// vacillate-adopt-commit object.
//
//	VAC(v, m):
//	  send <1, v> to all
//	  wait to receive n−t <1, *> messages
//	  if received more than n/2 <1, w> messages (same w):
//	      send <2, w, ratify> to all
//	  else:
//	      send <2, ?> to all
//	  wait to receive n−t <2, *> messages
//	  if received more than t <2, u, ratify>:  return (commit, u)
//	  elif received a  <2, u, ratify>:         return (adopt, u)
//	  else:                                    return (vacillate, v)
//
// The round is the same over any value domain: two strict majorities
// intersect, so every ratify of a round carries the same value however
// many values there are. A value from the wire outside the domain fills
// its sender's quorum slot but is never counted.
//
// The object is stateful per processor: it owns the endpoint's inbound
// stream and buffers messages across rounds. It is not safe for
// concurrent calls (the template is strictly sequential).
//
// On commit the object broadcasts its round-(m+1) messages before
// returning, so that processors that halt after deciding (as the paper's
// template prescribes) do not starve slower processors of the n−t quorum
// they need to finish the next round. Lemma 5's coherence guarantees that
// after a round-m commit every live processor enters round m+1 with the
// committed value, so one echo round is exactly enough for them all to
// commit at m+1.
type VAC[V comparable] struct {
	node msgnet.Endpoint
	t    int
	in   func(V) bool // the value domain
	col  *collector[V]
	// counted is the values of the reports the last round counted,
	// ordered by sender.
	counted []V

	// Protocol-level counters; nil without Instrument, and nil counters
	// no-op, so Propose carries no metric branches.
	rounds    *metrics.Counter
	ratified  *metrics.Counter // phase-2 broadcasts that carried a value
	questions *metrics.Counter // phase-2 broadcasts that asked "?"
}

var _ core.VacillateAdoptCommit[int] = (*VAC[int])(nil)

// NewVAC returns the binary Ben-Or VAC for this processor, over the
// values {0, 1}. t is the crash-fault tolerance and must satisfy 2t < n.
func NewVAC(node msgnet.Endpoint, t int) (*VAC[int], error) {
	return newVAC(node, t, func(v int) bool { return v == 0 || v == 1 })
}

// NewMultiVAC returns the same VAC over every value of V.
func NewMultiVAC[V comparable](node msgnet.Endpoint, t int) (*VAC[V], error) {
	return newVAC(node, t, func(V) bool { return true })
}

func newVAC[V comparable](node msgnet.Endpoint, t int, in func(V) bool) (*VAC[V], error) {
	if n := node.N(); 2*t >= n {
		return nil, fmt.Errorf("benor: t=%d violates 2t < n with n=%d", t, n)
	}
	if t < 0 {
		return nil, fmt.Errorf("benor: negative fault bound t=%d", t)
	}
	return &VAC[V]{node: node, t: t, in: in, col: newCollector[V](node)}, nil
}

// Instrument attaches protocol-level counters: rounds run, and how often
// phase 2 ratified a majority value versus asking "?". The ratio is the
// protocol's own view of how close it is to convergence.
func (va *VAC[V]) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	va.rounds = reg.Counter("benor_vac_rounds_total")
	va.ratified = reg.Counter("benor_vac_ratify_value_total")
	va.questions = reg.Counter("benor_vac_ratify_question_total")
}

// Reports returns the values of the phase-1 reports the last round
// counted, ordered by sender, each once per sender: a value appears as
// often as it was reported. It is empty before the first round.
func (va *VAC[V]) Reports() []V { return slices.Clone(va.counted) }

// Propose implements core.VacillateAdoptCommit.
func (va *VAC[V]) Propose(ctx context.Context, v V, round int) (core.Confidence, V, error) {
	if !va.in(v) {
		return 0, v, fmt.Errorf("benor: input %v outside the value domain", v)
	}
	n := va.node.N()
	quorum := n - va.t
	va.col.advance(round)
	va.rounds.Inc(va.node.ID())

	// Phase 1: report the current preference.
	if err := va.node.Broadcast(Report[V]{Round: round, Value: v}); err != nil {
		return 0, v, fmt.Errorf("benor: round %d phase 1: %w", round, err)
	}
	reports, err := va.col.waitReports(ctx, round, quorum)
	if err != nil {
		return 0, v, err
	}

	// Phase 2: ratify a strict majority value, or ask "?".
	out := Ratify[V]{Round: round}
	counts := make(map[V]int, 2)
	va.counted = va.counted[:0]
	for from := range n {
		if r, ok := reports[from]; ok && va.in(r.Value) {
			va.counted = append(va.counted, r.Value)
			counts[r.Value]++
			if 2*counts[r.Value] > n {
				out.Value, out.HasValue = r.Value, true
			}
		}
	}
	if out.HasValue {
		va.ratified.Inc(va.node.ID())
	} else {
		va.questions.Inc(va.node.ID())
	}
	if err := va.node.Broadcast(out); err != nil {
		return 0, v, fmt.Errorf("benor: round %d phase 2: %w", round, err)
	}
	ratifies, err := va.col.waitRatifies(ctx, round, quorum)
	if err != nil {
		return 0, v, err
	}

	clear(counts)
	var (
		sawRatify bool
		u         V
	)
	for _, r := range ratifies {
		if r.HasValue && va.in(r.Value) {
			counts[r.Value]++
			sawRatify, u = true, r.Value
		}
	}
	for w, c := range counts {
		if c > va.t {
			// Echo the next round before the template halts us (see type
			// comment).
			if err := va.node.Broadcast(Report[V]{Round: round + 1, Value: w}); err != nil {
				return 0, v, fmt.Errorf("benor: round %d commit echo: %w", round, err)
			}
			if err := va.node.Broadcast(Ratify[V]{Round: round + 1, Value: w, HasValue: true}); err != nil {
				return 0, v, fmt.Errorf("benor: round %d commit echo: %w", round, err)
			}
			return core.Commit, w, nil
		}
	}
	if sawRatify {
		return core.Adopt, u, nil
	}
	return core.Vacillate, v, nil
}
