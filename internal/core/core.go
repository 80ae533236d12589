// Package core implements the object-oriented consensus framework of
// Afek, Aspnes, Cohen and Vainstein ("Brief Announcement: Object Oriented
// Consensus", PODC 2017).
//
// The paper's thesis is that consensus algorithms are a repetition of a
// two-step round: an agreement-detector object observes how close the
// system is to consensus, and a stalemate-breaker object perturbs the
// processors' preferences so the detector eventually observes agreement.
//
// Two detector/breaker pairs are defined:
//
//   - AdoptCommit + Conciliator — Aspnes's earlier framework (Algorithm 2
//     in the paper), which the paper shows captures Phase-King.
//   - VacillateAdoptCommit + Reconciliator — the paper's new pair
//     (Algorithm 1), needed for algorithms with three per-round outcome
//     classes, such as Ben-Or and Raft.
//
// This package defines the four object interfaces, their formal
// guarantees (documented per method), and the two generic consensus
// templates RunVAC and RunAC. Concrete protocol objects live in
// internal/benor, internal/phaseking, and internal/raft; object algebra
// (building a VAC out of two ACs, and vice versa) lives in
// internal/adapters.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/trace"
)

// Confidence is the grade attached to an agreement detector's output.
type Confidence int

// The three confidence levels. AdoptCommit objects only ever return Adopt
// or Commit; VacillateAdoptCommit objects may return all three.
const (
	// Vacillate means the system is in an indecisive state; the only
	// guarantee the receiver has is that no processor received Commit
	// this round.
	Vacillate Confidence = iota + 1
	// Adopt means some processors may have agreed on the returned value:
	// every other processor either received Vacillate or carries the same
	// value.
	Adopt
	// Commit means the system has reached agreement on the returned
	// value; every other processor receives the same value with
	// confidence Adopt or Commit.
	Commit
)

var confidenceNames = map[Confidence]string{
	Vacillate: "vacillate",
	Adopt:     "adopt",
	Commit:    "commit",
}

// String implements fmt.Stringer.
func (c Confidence) String() string {
	if s, ok := confidenceNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Confidence(%d)", int(c))
}

// Valid reports whether c is one of the three defined levels.
func (c Confidence) Valid() bool { return c >= Vacillate && c <= Commit }

// AdoptCommit is Gafni's agreement detector as formulated by Aspnes: a
// weakened consensus whose output carries a two-level confidence.
//
// A correct implementation guarantees, across the set of processors that
// invoke Propose with the same round number:
//
//   - Validity: the returned value is some processor's input.
//   - Termination: every correct processor's call returns.
//   - Coherence: if some processor receives (Commit, u), every processor
//     receives value u (with confidence Adopt or Commit).
//   - Convergence: if all processors propose the same v, all receive
//     (Commit, v).
//
// Propose must never return Vacillate.
type AdoptCommit[V comparable] interface {
	Propose(ctx context.Context, v V, round int) (Confidence, V, error)
}

// Conciliator is Aspnes's stalemate breaker: with probability greater
// than zero, all processors invoking the same round receive the same
// value; the value is always some processor's input (validity) and every
// call returns (termination).
type Conciliator[V comparable] interface {
	Conciliate(ctx context.Context, conf Confidence, v V, round int) (V, error)
}

// VacillateAdoptCommit (VAC) is the paper's three-level agreement
// detector. In addition to AdoptCommit's validity, termination, and
// convergence, it guarantees:
//
//   - Coherence over adopt & commit: if any processor receives
//     (Commit, u), every other processor receives (Commit, u) or
//     (Adopt, u).
//   - Coherence over vacillate & adopt: if no processor receives Commit
//     and some processor receives (Adopt, u), every other processor
//     receives (Adopt, u) or (Vacillate, *) where * is any valid value.
//
// The third level is what lets the framework express algorithms that do
// not force a processor to update its preference every round (Ben-Or,
// Raft): Vacillate tells the processor that consensus has not been
// reached without prescribing a new preference.
type VacillateAdoptCommit[V comparable] interface {
	Propose(ctx context.Context, v V, round int) (Confidence, V, error)
}

// Reconciliator is the paper's stalemate breaker, weaker than a
// conciliator: with probability 1 at *some* round all invoking processors
// receive the same value, and that value corresponds to the round's adopt
// values (or, if there are none, to some processor's input). Unlike a
// conciliator it may be invoked by only a subset of the processors (those
// that vacillated).
type Reconciliator[V comparable] interface {
	Reconcile(ctx context.Context, conf Confidence, v V, round int) (V, error)
}

// Initter is the paper's INIT() hook: objects that need per-execution
// setup (the paper's template calls INIT once before the first round)
// implement it; the templates call it when present.
type Initter interface {
	Init(ctx context.Context) error
}

// Decision is a consensus output: the agreed value and the round at which
// this processor committed.
type Decision[V comparable] struct {
	Value V
	Round int
}

// Sentinel errors returned by the templates.
var (
	// ErrNoDecision is returned when MaxRounds elapsed without a commit.
	ErrNoDecision = errors.New("core: no decision within the configured round bound")
	// ErrContractViolation is returned when an object breaks its
	// interface contract (e.g. an AdoptCommit returning Vacillate).
	ErrContractViolation = errors.New("core: object contract violation")
)

// Options configure a template run. The zero value runs forever (until
// decision, error, or context cancellation) and records nothing.
type Options struct {
	// MaxRounds bounds the number of rounds; 0 means unbounded. If the
	// bound is hit without a commit the template returns ErrNoDecision.
	MaxRounds int
	// KeepParticipating makes the template keep invoking the objects for
	// all MaxRounds even after deciding, as the Phase-King decomposition
	// requires ("every algorithm continues to participate in the overall
	// consensus template even after deciding"). Requires MaxRounds > 0.
	KeepParticipating bool
	// FinalValue is the classical Phase-King rule: a commit does not
	// decide; after all MaxRounds rounds the processor decides the
	// preference it then holds, whether or not any round committed.
	// Implies KeepParticipating, so it requires MaxRounds > 0.
	FinalValue bool
	// Recorder, if non-nil, receives invoke/return/decide events.
	Recorder *trace.Recorder
	// Node identifies this processor in trace events.
	Node int
	// Metrics, if non-nil, receives per-object invoke latency histograms
	// keyed by the returned confidence — the live view of the paper's
	// detector/breaker decomposition: how often the detector vacillates,
	// adopts, or commits, and how long each outcome takes to produce.
	Metrics *metrics.Registry
}

// Option mutates Options; see With*.
type Option func(*Options)

// WithMaxRounds bounds the template at m rounds.
func WithMaxRounds(m int) Option { return func(o *Options) { o.MaxRounds = m } }

// WithKeepParticipating keeps the processor in the protocol after it
// decides, until MaxRounds elapse.
func WithKeepParticipating() Option { return func(o *Options) { o.KeepParticipating = true } }

// WithFinalValue decides the preference held after round MaxRounds; see
// Options.FinalValue.
func WithFinalValue() Option { return func(o *Options) { o.FinalValue = true } }

// WithRecorder attaches a trace recorder identifying this processor as
// node.
func WithRecorder(rec *trace.Recorder, node int) Option {
	return func(o *Options) {
		o.Recorder = rec
		o.Node = node
	}
}

// WithMetrics attaches a metrics registry; see Options.Metrics. The nil
// form is a shared no-op so uninstrumented callers don't allocate a
// closure per run.
func WithMetrics(reg *metrics.Registry) Option {
	if reg == nil {
		return noopOption
	}
	return func(o *Options) { o.Metrics = reg }
}

var noopOption = func(*Options) {}

// OptionsFrom folds opts into an Options value without validating it.
// Protocol runners (benor.RunDecomposed and friends) use it to inspect
// cross-cutting settings — the metrics registry in particular — before
// delegating to the templates.
func OptionsFrom(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func buildOptions(opts []Option) (Options, error) {
	o := OptionsFrom(opts...)
	o.KeepParticipating = o.KeepParticipating || o.FinalValue
	if o.KeepParticipating && o.MaxRounds <= 0 {
		return o, errors.New("core: KeepParticipating and FinalValue require MaxRounds > 0")
	}
	return o, nil
}

// objectMetrics is a template run's pre-registered instrument set: one
// latency histogram per (object, outcome) pair plus one for the breaker,
// resolved once at template entry so the round loop never formats a
// metric name. The zero value (no registry) discards.
type objectMetrics struct {
	enabled  bool
	node     int
	detector [Commit + 1]*metrics.Histogram // indexed by Confidence
	breaker  *metrics.Histogram
}

// newObjectMetrics resolves instruments for a detector ("vac"/"ac") and
// its stalemate breaker ("reconciliator"/"conciliator"), one per level
// the detector may return: floor through Commit.
func newObjectMetrics(o Options, floor Confidence, detector, breaker string) objectMetrics {
	om := objectMetrics{node: o.Node}
	if o.Metrics == nil {
		return om
	}
	om.enabled = true
	for c := floor; c <= Commit; c++ {
		om.detector[c] = o.Metrics.Histogram(
			metrics.Label("ooc_object_invoke_seconds", "object", detector, "outcome", c.String()), nil)
	}
	om.breaker = o.Metrics.Histogram(
		metrics.Label("ooc_object_invoke_seconds", "object", breaker, "outcome", "value"), nil)
	return om
}

// now reads the clock only when instruments are attached, so the
// uninstrumented template pays a single branch per invocation.
func (om objectMetrics) now() time.Time {
	if !om.enabled {
		return time.Time{}
	}
	return time.Now()
}

// observeDetector records one detector invocation's latency under its
// returned confidence.
func (om objectMetrics) observeDetector(c Confidence, since time.Time) {
	if om.enabled && c.Valid() && om.detector[c] != nil {
		om.detector[c].ObserveSince(om.node, since)
	}
}

// observeBreaker records one breaker invocation's latency.
func (om objectMetrics) observeBreaker(since time.Time) {
	if om.enabled {
		om.breaker.ObserveSince(om.node, since)
	}
}

// RunVAC is Algorithm 1, the paper's generic consensus template: rounds
// of VAC.Propose followed, on vacillate, by Reconciliator.Reconcile.
//
//	Consensus(v):
//	  m ← 0; INIT()
//	  while true:
//	    m ← m+1
//	    (X, σ) ← VAC(v, m)
//	    switch X:
//	      vacillate: v ← Reconciliator(X, σ, m)
//	      adopt:     v ← σ
//	      commit:    v ← σ; decide σ
//
// The proof of Lemma 1 (agreement via coherence over adopt & commit plus
// convergence; validity and termination from the reconciliator) carries
// over directly.
func RunVAC[V comparable](
	ctx context.Context,
	vac VacillateAdoptCommit[V],
	rec Reconciliator[V],
	v V,
	opts ...Option,
) (Decision[V], error) {
	return run(ctx, Vacillate, vac, rec, func(ctx context.Context, x Confidence, sigma V, m int) (V, error) {
		return rec.Reconcile(ctx, x, sigma, m)
	}, v, opts)
}

// RunAC is Algorithm 2, the template over Aspnes's earlier object pair:
// rounds of AdoptCommit.Propose followed, on adopt, by
// Conciliator.Conciliate.
//
//	Consensus(v):
//	  m ← 0; INIT()
//	  while true:
//	    m ← m+1
//	    (X, σ) ← AC(v, m)
//	    switch X:
//	      adopt:  v ← Conciliator(X, σ, m)
//	      commit: v ← σ; decide σ
//
// An AdoptCommit returning Vacillate breaks its contract: that is exactly
// the expressiveness gap Section 5 of the paper is about.
func RunAC[V comparable](
	ctx context.Context,
	ac AdoptCommit[V],
	con Conciliator[V],
	v V,
	opts ...Option,
) (Decision[V], error) {
	return run(ctx, Adopt, ac, con, func(ctx context.Context, x Confidence, sigma V, m int) (V, error) {
		return con.Conciliate(ctx, x, sigma, m)
	}, v, opts)
}

// objectNames are each template's detector and breaker names in traces
// and metrics, indexed by the detector's floor.
var objectNames = [Commit + 1][2]string{
	Vacillate: {"vac", "reconciliator"},
	Adopt:     {"ac", "conciliator"},
}

// run is the round loop both templates share. floor is the lowest level
// the detector may return: that level hands the round to the breaker
// (brk, called through breakTie), Commit decides, a level between the two
// adopts σ, and any level outside [floor, Commit] is a contract violation.
// An AdoptCommit satisfies VacillateAdoptCommit's method set, so det is
// either template's detector.
func run[V comparable](
	ctx context.Context,
	floor Confidence,
	det VacillateAdoptCommit[V],
	brk any,
	breakTie func(ctx context.Context, x Confidence, sigma V, m int) (V, error),
	v V,
	opts []Option,
) (Decision[V], error) {
	o, err := buildOptions(opts)
	if err != nil {
		return Decision[V]{}, err
	}
	if err := initObjects(ctx, det, brk); err != nil {
		return Decision[V]{}, err
	}
	detector, breaker := objectNames[floor][0], objectNames[floor][1]
	om := newObjectMetrics(o, floor, detector, breaker)

	var (
		decision Decision[V]
		decided  bool
	)
	for m := 1; ; m++ {
		if o.MaxRounds > 0 && m > o.MaxRounds {
			if o.FinalValue {
				o.Recorder.Decide(o.Node, o.MaxRounds, v)
				return Decision[V]{Value: v, Round: o.MaxRounds}, nil
			}
			if decided {
				return decision, nil
			}
			return Decision[V]{}, fmt.Errorf("after %d rounds: %w", o.MaxRounds, ErrNoDecision)
		}
		if err := ctx.Err(); err != nil {
			return Decision[V]{}, err
		}

		o.Recorder.Invoke(o.Node, m, detector, v)
		t0 := om.now()
		x, sigma, err := det.Propose(ctx, v, m)
		if err != nil {
			return Decision[V]{}, fmt.Errorf("round %d: %s: %w", m, detector, err)
		}
		om.observeDetector(x, t0)
		o.Recorder.Return(o.Node, m, detector, [2]any{x, sigma})

		switch {
		case x < floor || x > Commit:
			return Decision[V]{}, fmt.Errorf("round %d: %s returned %v: %w", m, detector, x, ErrContractViolation)
		case x == floor:
			o.Recorder.Invoke(o.Node, m, breaker, sigma)
			t0 = om.now()
			v, err = breakTie(ctx, x, sigma, m)
			if err != nil {
				return Decision[V]{}, fmt.Errorf("round %d: %s: %w", m, breaker, err)
			}
			om.observeBreaker(t0)
			o.Recorder.Return(o.Node, m, breaker, v)
		case x == Commit:
			v = sigma
			if !decided && !o.FinalValue {
				decided = true
				decision = Decision[V]{Value: sigma, Round: m}
				o.Recorder.Decide(o.Node, m, sigma)
			}
			if !o.KeepParticipating {
				return decision, nil
			}
		default:
			v = sigma
		}
	}
}

// initObjects calls Init on every argument implementing Initter.
func initObjects(ctx context.Context, objs ...any) error {
	for _, obj := range objs {
		if in, ok := obj.(Initter); ok {
			if err := in.Init(ctx); err != nil {
				return fmt.Errorf("core: init: %w", err)
			}
		}
	}
	return nil
}
