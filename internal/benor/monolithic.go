package benor

import (
	"context"
	"fmt"

	"ooc/internal/core"
	"ooc/internal/msgnet"
	"ooc/internal/sim"
)

// RunMonolithic executes classic Ben-Or exactly as the survey
// presentation gives it — one loop, no object boundaries. It is the
// baseline the experiments compare the decomposition against: both
// variants exchange byte-identical message sequences, so any divergence
// in rounds or message counts is attributable to the decomposition.
//
// Of the template's options it reads core.WithMaxRounds and
// core.WithRecorder; the trace gets round starts and the decision.
func RunMonolithic(
	ctx context.Context,
	node msgnet.Endpoint,
	rng *sim.RNG,
	t int,
	v int,
	opts ...core.Option,
) (core.Decision[int], error) {
	o := core.OptionsFrom(opts...)
	maxRounds, rec := o.MaxRounds, o.Recorder
	n := node.N()
	if 2*t >= n {
		return core.Decision[int]{}, fmt.Errorf("benor: t=%d violates 2t < n with n=%d", t, n)
	}
	if v != 0 && v != 1 {
		return core.Decision[int]{}, fmt.Errorf("benor: non-binary input %d", v)
	}
	col := newCollector[int](node)
	quorum := n - t

	for round := 1; ; round++ {
		if maxRounds > 0 && round > maxRounds {
			return core.Decision[int]{}, fmt.Errorf("after %d rounds: %w", maxRounds, core.ErrNoDecision)
		}
		if err := ctx.Err(); err != nil {
			return core.Decision[int]{}, err
		}
		rec.RoundStart(o.Node, round)
		col.advance(round)

		if err := node.Broadcast(Report[int]{Round: round, Value: v}); err != nil {
			return core.Decision[int]{}, fmt.Errorf("benor: round %d phase 1: %w", round, err)
		}
		reports, err := col.waitReports(ctx, round, quorum)
		if err != nil {
			return core.Decision[int]{}, err
		}
		counts := [2]int{}
		for _, r := range reports {
			if r.Value == 0 || r.Value == 1 {
				counts[r.Value]++
			}
		}

		out := Ratify[int]{Round: round}
		for w := 0; w <= 1; w++ {
			if 2*counts[w] > n {
				out.Value, out.HasValue = w, true
			}
		}
		if err := node.Broadcast(out); err != nil {
			return core.Decision[int]{}, fmt.Errorf("benor: round %d phase 2: %w", round, err)
		}
		ratifies, err := col.waitRatifies(ctx, round, quorum)
		if err != nil {
			return core.Decision[int]{}, err
		}

		ratifyCount := [2]int{}
		sawRatify := false
		u := 0
		for _, r := range ratifies {
			if r.HasValue && (r.Value == 0 || r.Value == 1) {
				ratifyCount[r.Value]++
				sawRatify = true
				u = r.Value
			}
		}

		switch {
		case ratifyCount[0] > t || ratifyCount[1] > t:
			if ratifyCount[1] > t {
				u = 1
			} else {
				u = 0
			}
			// Same one-round echo as the decomposed VAC (see VAC docs).
			if err := node.Broadcast(Report[int]{Round: round + 1, Value: u}); err != nil {
				return core.Decision[int]{}, fmt.Errorf("benor: round %d commit echo: %w", round, err)
			}
			if err := node.Broadcast(Ratify[int]{Round: round + 1, Value: u, HasValue: true}); err != nil {
				return core.Decision[int]{}, fmt.Errorf("benor: round %d commit echo: %w", round, err)
			}
			rec.Decide(o.Node, round, u)
			return core.Decision[int]{Value: u, Round: round}, nil
		case sawRatify:
			v = u
		default:
			v = rng.Bit()
		}
	}
}

// RunDecomposed wires the paper's decomposition together: Algorithm 5's
// VAC and Algorithm 6's reconciliator under the generic core.RunVAC
// template. It is the entry point examples and experiments use for "the
// paper's Ben-Or".
func RunDecomposed(
	ctx context.Context,
	node msgnet.Endpoint,
	rng *sim.RNG,
	t int,
	v int,
	opts ...core.Option,
) (core.Decision[int], error) {
	vac, err := NewVAC(node, t)
	if err != nil {
		return core.Decision[int]{}, err
	}
	return vac.Consensus(ctx, NewReconciliator(rng), v, opts...)
}
