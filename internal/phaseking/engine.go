// Package phaseking implements the Phase-King Byzantine consensus
// protocol of Berman, Garay and Perry in the synchronous message-passing
// model with t Byzantine processors, 3t < n, in two forms:
//
//   - the paper's decomposition (Section 4.1): an AdoptCommit object
//     (Algorithm 3) and a king Conciliator (Algorithm 4) run under the
//     generic core.RunAC template, and
//   - the classic monolithic protocol, used as the experiments' baseline.
//
// Every phase costs three synchronous exchanges: two inside the
// AdoptCommit and one king broadcast inside the Conciliator. The paper
// notes that, unlike the generic template, Phase-King processors keep
// participating after they decide; the runner keeps them in under either
// decision rule (core.WithKeepParticipating, or core.WithFinalValue for
// the classical rule), so both rules run the template's one round loop.
//
// # A soundness caveat found during reproduction
//
// The paper's Lemma 3 claims the king conciliator satisfies validity
// "since the phase king's inputted value is σm" — but a Byzantine king
// sends an arbitrary value, so conciliator validity fails exactly when it
// matters. Aspnes's Algorithm 2 framework derives agreement from the fact
// that after a partial commit of v all conciliator inputs are v, so a
// *valid* conciliator must output v; with a Byzantine king this argument
// collapses, and a crafted adversary (see KingDiversionAdversary) makes
// two correct processors decide different values under the paper's
// first-commit decision rule. The classical protocol is immune because it
// decides only after all t+1 phases. This package therefore offers both
// decision rules — RuleFirstCommit (paper-faithful) and RuleFinalValue
// (classically safe) — and the experiment suite demonstrates the
// difference (experiment EA in EXPERIMENTS.md).
package phaseking

import (
	"context"
	"fmt"

	"ooc/internal/metrics"
	"ooc/internal/netsim"
)

// exchangesPerPhase is the synchronous cost of one template round: two
// AdoptCommit exchanges plus the king broadcast.
const exchangesPerPhase = 3

// engine serializes one correct processor's synchronous exchanges and
// keeps the global lockstep aligned. Because the template skips the
// conciliator for processors that received commit, the engine "catches
// up" skipped king exchanges before the next AdoptCommit round so that
// every processor performs exactly the same number of Exchange calls.
type engine struct {
	net  *netsim.SyncNetwork
	id   int
	n    int
	t    int
	done int // exchanges completed so far

	// exchanges and kingTurns are nil unless instrument attached a
	// registry; nil counters no-op, so the hot path stays branch-free.
	exchanges *metrics.Counter
	kingTurns *metrics.Counter
}

func newEngine(net *netsim.SyncNetwork, id, t int) (*engine, error) {
	n := net.N()
	if 3*t >= n {
		return nil, fmt.Errorf("phaseking: t=%d violates 3t < n with n=%d", t, n)
	}
	if t < 0 {
		return nil, fmt.Errorf("phaseking: negative fault bound t=%d", t)
	}
	return &engine{net: net, id: id, n: n, t: t}, nil
}

// instrument attaches protocol-level counters. Exchange counts are the
// natural cost unit of the synchronous model — one counter tick is one
// lockstep barrier crossing.
func (e *engine) instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	e.exchanges = reg.Counter("phaseking_exchanges_total")
	e.kingTurns = reg.Counter("phaseking_king_turns_total")
}

// king reports the king of template round m (1-based), cycling over the
// processor ids as the paper's "if id = m" does.
func (e *engine) king(m int) int { return (m - 1) % e.n }

// exchange performs one synchronous step broadcasting value uniformly to
// everyone; nil means stay silent. It returns the received vector.
func (e *engine) exchange(ctx context.Context, value any) ([]any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]any, e.n)
	if value != nil {
		for i := range out {
			out[i] = value
		}
	}
	in, err := e.net.Exchange(e.id, out)
	if err != nil {
		return nil, fmt.Errorf("phaseking: exchange %d: %w", e.done, err)
	}
	e.done++
	e.exchanges.Inc(e.id)
	return in, nil
}

// kingExchange performs the conciliator's broadcast step for round m: the
// king transmits min(1, v), everyone else stays silent.
func (e *engine) kingExchange(ctx context.Context, m int, v int) ([]any, error) {
	var out any
	if e.id == e.king(m) {
		out = clampBinary(v)
		e.kingTurns.Inc(e.id)
	}
	return e.exchange(ctx, out)
}

// syncTo performs skipped king exchanges until the processor has
// completed target exchanges. Only king exchanges can be missing: the two
// AdoptCommit exchanges always run as a unit.
func (e *engine) syncTo(ctx context.Context, target int, v int) error {
	for e.done < target {
		if e.done%exchangesPerPhase != 2 {
			return fmt.Errorf("phaseking: internal desync: %d exchanges done, target %d", e.done, target)
		}
		m := e.done/exchangesPerPhase + 1
		if _, err := e.kingExchange(ctx, m, v); err != nil {
			return err
		}
	}
	return nil
}

// clampBinary is the paper's MIN(1, v): it maps the "no majority" marker
// 2 onto a legal binary value.
func clampBinary(v int) int {
	if v >= 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}

// binaryOrDefault extracts a binary value a Byzantine sender may have
// corrupted, falling back to def.
func binaryOrDefault(raw any, def int) int {
	if v, ok := raw.(int); ok && (v == 0 || v == 1) {
		return v
	}
	return def
}
