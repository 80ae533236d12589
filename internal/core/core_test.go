package core

import (
	"context"
	"errors"
	"testing"

	"ooc/internal/metrics"
	"ooc/internal/trace"
)

func TestConfidenceString(t *testing.T) {
	cases := map[Confidence]string{
		Vacillate:      "vacillate",
		Adopt:          "adopt",
		Commit:         "commit",
		Confidence(42): "Confidence(42)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestConfidenceValid(t *testing.T) {
	for _, c := range []Confidence{Vacillate, Adopt, Commit} {
		if !c.Valid() {
			t.Errorf("%v.Valid() = false", c)
		}
	}
	for _, c := range []Confidence{0, 4, -1} {
		if c.Valid() {
			t.Errorf("Confidence(%d).Valid() = true", int(c))
		}
	}
}

// scriptedVAC returns a fixed sequence of (confidence, value) pairs, then
// commits the last value forever.
type scriptedVAC struct {
	script []struct {
		x Confidence
		v int
	}
	calls int
}

func (s *scriptedVAC) Propose(_ context.Context, v int, round int) (Confidence, int, error) {
	i := s.calls
	s.calls++
	if i >= len(s.script) {
		last := s.script[len(s.script)-1]
		return Commit, last.v, nil
	}
	return s.script[i].x, s.script[i].v, nil
}

func fixedReconciliator(out int) ReconciliatorFunc[int] {
	return func(_ context.Context, _ Confidence, _ int, _ int) (int, error) {
		return out, nil
	}
}

func TestRunVACCommitsImmediately(t *testing.T) {
	vac := VACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
		return Commit, v, nil
	})
	d, err := RunVAC[int](context.Background(), vac, fixedReconciliator(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Value != 7 || d.Round != 1 {
		t.Fatalf("decision = %+v, want {7 1}", d)
	}
}

func TestRunVACAdoptUpdatesPreference(t *testing.T) {
	s := &scriptedVAC{script: []struct {
		x Confidence
		v int
	}{{Adopt, 9}, {Commit, 9}}}
	var sawRound2Input int
	wrapped := VACFunc[int](func(ctx context.Context, v int, round int) (Confidence, int, error) {
		if round == 2 {
			sawRound2Input = v
		}
		return s.Propose(ctx, v, round)
	})
	d, err := RunVAC[int](context.Background(), wrapped, fixedReconciliator(-1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sawRound2Input != 9 {
		t.Fatalf("round 2 proposed %d, want adopted value 9", sawRound2Input)
	}
	if d.Value != 9 || d.Round != 2 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRunVACVacillateInvokesReconciliator(t *testing.T) {
	s := &scriptedVAC{script: []struct {
		x Confidence
		v int
	}{{Vacillate, 3}, {Commit, 5}}}
	recCalled := 0
	rec := ReconciliatorFunc[int](func(_ context.Context, conf Confidence, v int, round int) (int, error) {
		recCalled++
		if conf != Vacillate || v != 3 || round != 1 {
			t.Errorf("reconciliator got (%v, %d, %d)", conf, v, round)
		}
		return 5, nil
	})
	d, err := RunVAC[int](context.Background(), s, rec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recCalled != 1 {
		t.Fatalf("reconciliator called %d times, want 1", recCalled)
	}
	if d.Value != 5 || d.Round != 2 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRunVACMaxRoundsNoDecision(t *testing.T) {
	vac := VACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
		return Vacillate, v, nil
	})
	_, err := RunVAC[int](context.Background(), vac, fixedReconciliator(1), 0, WithMaxRounds(5))
	if !errors.Is(err, ErrNoDecision) {
		t.Fatalf("err = %v, want ErrNoDecision", err)
	}
}

// ---- the shared round loop ----
//
// The contract cases below were first written against RunVAC; each now
// runs against both templates, so breaking the shared loop fails it for
// either.

// breaker is a stalemate breaker either template accepts.
type breaker interface {
	Reconciliator[int]
	Conciliator[int]
}

// breakFunc adapts a function to both breaker interfaces.
type breakFunc func(ctx context.Context, conf Confidence, v int, round int) (int, error)

func (f breakFunc) Reconcile(ctx context.Context, conf Confidence, v int, round int) (int, error) {
	return f(ctx, conf, v, round)
}

func (f breakFunc) Conciliate(ctx context.Context, conf Confidence, v int, round int) (int, error) {
	return f(ctx, conf, v, round)
}

func breakTo(out int) breakFunc {
	return func(context.Context, Confidence, int, int) (int, error) { return out, nil }
}

// templates are Algorithm 1 and Algorithm 2 with their detector's floor
// (the level that hands a round to the breaker) and object names. An
// AdoptCommit has VacillateAdoptCommit's method set, so one detector
// value serves both.
var templates = []struct {
	name              string
	floor             Confidence
	detector, breaker string
	run               func(ctx context.Context, det VacillateAdoptCommit[int], brk breaker, v int, opts ...Option) (Decision[int], error)
}{
	{"RunVAC", Vacillate, "vac", "reconciliator",
		func(ctx context.Context, det VacillateAdoptCommit[int], brk breaker, v int, opts ...Option) (Decision[int], error) {
			return RunVAC[int](ctx, det, brk, v, opts...)
		}},
	{"RunAC", Adopt, "ac", "conciliator",
		func(ctx context.Context, det VacillateAdoptCommit[int], brk breaker, v int, opts ...Option) (Decision[int], error) {
			return RunAC[int](ctx, det, brk, v, opts...)
		}},
}

func TestRunVACInvalidConfidence(t *testing.T) {
	for _, tpl := range templates {
		for _, bad := range []Confidence{tpl.floor - 1, Commit + 1} {
			det := VACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
				return bad, v, nil
			})
			_, err := tpl.run(context.Background(), det, breakTo(1), 0, WithMaxRounds(3))
			if !errors.Is(err, ErrContractViolation) {
				t.Errorf("%s, detector returned %v: err = %v, want ErrContractViolation", tpl.name, bad, err)
			}
		}
	}
}

func TestRunVACKeepParticipating(t *testing.T) {
	calls := 0
	vac := VACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
		calls++
		return Commit, v, nil
	})
	d, err := RunVAC[int](context.Background(), vac, fixedReconciliator(0), 4,
		WithMaxRounds(6), WithKeepParticipating())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Fatalf("vac invoked %d times, want 6 (keep participating)", calls)
	}
	if d.Value != 4 || d.Round != 1 {
		t.Fatalf("decision = %+v, want first-round decision", d)
	}
}

func TestRunVACKeepParticipatingRequiresBound(t *testing.T) {
	// Options are checked before any object's Init runs.
	for _, tpl := range templates {
		for name, opt := range map[string]Option{"KeepParticipating": WithKeepParticipating(), "FinalValue": WithFinalValue()} {
			det := &initVAC{VACFunc: func(_ context.Context, v int, _ int) (Confidence, int, error) {
				return Commit, v, nil
			}}
			_, err := tpl.run(context.Background(), det, breakTo(0), 4, opt)
			if err == nil {
				t.Errorf("%s: %s without MaxRounds accepted", tpl.name, name)
			}
			if det.inits != 0 {
				t.Errorf("%s: Init ran %d times before %s was rejected", tpl.name, det.inits, name)
			}
		}
	}
}

// TestFinalValueDecidesAfterTheLastRound: under the classical rule a
// commit does not decide; the preference held after round MaxRounds is
// decided there, once, even when no round committed.
func TestFinalValueDecidesAfterTheLastRound(t *testing.T) {
	for _, tpl := range templates {
		for _, tc := range []struct {
			name string
			det  VACFunc[int]
		}{
			{"commit 0 then adopt 1", func(_ context.Context, _ int, round int) (Confidence, int, error) {
				if round == 1 {
					return Commit, 0, nil
				}
				return Adopt, 1, nil
			}},
			{"never commits", func(_ context.Context, v int, _ int) (Confidence, int, error) {
				return tpl.floor, v, nil
			}},
		} {
			rec := trace.NewRecorder()
			calls := 0
			det := VACFunc[int](func(ctx context.Context, v int, round int) (Confidence, int, error) {
				calls++
				return tc.det(ctx, v, round)
			})
			d, err := tpl.run(context.Background(), det, breakTo(1), 0,
				WithMaxRounds(4), WithFinalValue(), WithRecorder(rec, 0))
			if err != nil {
				t.Fatalf("%s, %s: %v", tpl.name, tc.name, err)
			}
			if d != (Decision[int]{Value: 1, Round: 4}) || calls != 4 {
				t.Errorf("%s, %s: decision %+v after %d rounds, want {1 4} after 4", tpl.name, tc.name, d, calls)
			}
			if decides := trace.Decisions(rec.Snapshot()); len(decides) != 1 || decides[0].Round != 4 {
				t.Errorf("%s, %s: decide events %+v, want one at round 4", tpl.name, tc.name, decides)
			}
		}
	}
}

func TestRunVACContextCancellation(t *testing.T) {
	for _, tpl := range templates {
		ctx, cancel := context.WithCancel(context.Background())
		det := VACFunc[int](func(_ context.Context, v int, round int) (Confidence, int, error) {
			if round == 3 {
				cancel()
			}
			return tpl.floor, v, nil
		})
		_, err := tpl.run(ctx, det, breakTo(1), 0)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tpl.name, err)
		}
	}
}

func TestRunVACPropagatesObjectErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, tpl := range templates {
		failing := VACFunc[int](func(context.Context, int, int) (Confidence, int, error) {
			return 0, 0, boom
		})
		if _, err := tpl.run(context.Background(), failing, breakTo(1), 0); !errors.Is(err, boom) {
			t.Errorf("%s: detector err = %v, want wrapped boom", tpl.name, err)
		}
		toBreaker := VACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
			return tpl.floor, v, nil
		})
		brk := breakFunc(func(context.Context, Confidence, int, int) (int, error) { return 0, boom })
		if _, err := tpl.run(context.Background(), toBreaker, brk, 0, WithMaxRounds(3)); !errors.Is(err, boom) {
			t.Errorf("%s: breaker err = %v, want wrapped boom", tpl.name, err)
		}
	}
}

type initVAC struct {
	VACFunc[int]
	inits int
}

func (i *initVAC) Init(context.Context) error {
	i.inits++
	return nil
}

type initBreaker struct {
	breakFunc
	inits int
}

func (i *initBreaker) Init(context.Context) error {
	i.inits++
	return nil
}

func TestRunVACCallsInit(t *testing.T) {
	for _, tpl := range templates {
		det := &initVAC{VACFunc: func(_ context.Context, v int, _ int) (Confidence, int, error) {
			return Commit, v, nil
		}}
		brk := &initBreaker{breakFunc: breakTo(0)}
		if _, err := tpl.run(context.Background(), det, brk, 1); err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		if det.inits != 1 || brk.inits != 1 {
			t.Errorf("%s: Init called %d times on the detector and %d on the breaker, want 1 and 1",
				tpl.name, det.inits, brk.inits)
		}
	}
}

func TestRunVACInitError(t *testing.T) {
	boom := errors.New("init failed")
	for _, tpl := range templates {
		failing := &failingInitter{err: boom}
		_, err := tpl.run(context.Background(), failing, breakTo(0), 1)
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want init error", tpl.name, err)
		}
		if failing.proposals != 0 {
			t.Errorf("%s: Propose ran %d times after Init failed", tpl.name, failing.proposals)
		}
	}
}

type failingInitter struct {
	err       error
	proposals int
}

func (f *failingInitter) Init(context.Context) error { return f.err }

func (f *failingInitter) Propose(_ context.Context, v int, _ int) (Confidence, int, error) {
	f.proposals++
	return Commit, v, nil
}

func TestRunVACRecordsTrace(t *testing.T) {
	// The trace and the metrics record each object call under the
	// template's object names.
	for _, tpl := range templates {
		rec := trace.NewRecorder()
		reg := metrics.NewRegistry()
		det := VACFunc[int](func(_ context.Context, v int, round int) (Confidence, int, error) {
			if round == 1 {
				return tpl.floor, 1, nil
			}
			return Commit, v, nil
		})
		d, err := tpl.run(context.Background(), det, breakTo(2), 1, WithRecorder(rec, 3), WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		if d.Value != 2 || d.Round != 2 {
			t.Fatalf("%s: decision = %+v", tpl.name, d)
		}
		tr := rec.Snapshot()
		st := trace.Summarize(tr)
		if st.ObjectInvocations[tpl.detector] != 2 || st.ObjectInvocations[tpl.breaker] != 1 {
			t.Fatalf("%s: invocations = %v, want %s 2 and %s 1", tpl.name, st.ObjectInvocations, tpl.detector, tpl.breaker)
		}
		if st.Decisions != 1 || st.DecideRound != 2 {
			t.Fatalf("%s: decision accounting: %+v", tpl.name, st)
		}
		returns := trace.Returns(tr, tpl.detector)
		if len(returns) != 2 || returns[0].Value != [2]any{tpl.floor, 1} || returns[1].Value != [2]any{Commit, 2} {
			t.Fatalf("%s: detector returns = %+v", tpl.name, returns)
		}
		for _, ev := range tr.Events {
			if ev.Node != 3 {
				t.Fatalf("%s: event attributed to node %d, want 3: %+v", tpl.name, ev.Node, ev)
			}
		}
		hists := reg.Snapshot().Histograms
		// A detector's series are the levels it may return: an AC's
		// vacillate series would only ever count a contract violation.
		for c := Vacillate; c <= Commit; c++ {
			name := metrics.Label("ooc_object_invoke_seconds", "object", tpl.detector, "outcome", c.String())
			if _, ok := hists[name]; ok != (c >= tpl.floor) {
				t.Errorf("%s: %s registered = %v, want %v", tpl.name, name, ok, c >= tpl.floor)
			}
		}
		for _, call := range [][2]string{
			{tpl.detector, tpl.floor.String()},
			{tpl.detector, "commit"},
			{tpl.breaker, "value"},
		} {
			name := metrics.Label("ooc_object_invoke_seconds", "object", call[0], "outcome", call[1])
			if got := hists[name].Count; got != 1 {
				t.Errorf("%s: %s count = %d, want 1", tpl.name, name, got)
			}
		}
	}
}

// ---- RunAC (Algorithm 2) ----

func TestRunACCommit(t *testing.T) {
	ac := ACFunc[string](func(_ context.Context, v string, _ int) (Confidence, string, error) {
		return Commit, v, nil
	})
	con := ConciliatorFunc[string](func(_ context.Context, _ Confidence, v string, _ int) (string, error) {
		return v, nil
	})
	d, err := RunAC[string](context.Background(), ac, con, "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Value != "x" || d.Round != 1 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRunACAdoptRoutesThroughConciliator(t *testing.T) {
	round := 0
	ac := ACFunc[string](func(_ context.Context, v string, _ int) (Confidence, string, error) {
		round++
		if round == 1 {
			return Adopt, v, nil
		}
		return Commit, v, nil
	})
	conCalls := 0
	con := ConciliatorFunc[string](func(_ context.Context, conf Confidence, v string, m int) (string, error) {
		conCalls++
		if conf != Adopt || m != 1 {
			t.Errorf("conciliator got (%v, %d)", conf, m)
		}
		return "king", nil
	})
	d, err := RunAC[string](context.Background(), ac, con, "x")
	if err != nil {
		t.Fatal(err)
	}
	if conCalls != 1 {
		t.Fatalf("conciliator called %d times", conCalls)
	}
	if d.Value != "king" || d.Round != 2 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRunACRejectsVacillate(t *testing.T) {
	ac := ACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
		return Vacillate, v, nil
	})
	con := ConciliatorFunc[int](func(_ context.Context, _ Confidence, v int, _ int) (int, error) {
		return v, nil
	})
	_, err := RunAC[int](context.Background(), ac, con, 0, WithMaxRounds(3))
	if !errors.Is(err, ErrContractViolation) {
		t.Fatalf("err = %v, want ErrContractViolation", err)
	}
}

func TestRunACMaxRounds(t *testing.T) {
	ac := ACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
		return Adopt, v, nil
	})
	con := ConciliatorFunc[int](func(_ context.Context, _ Confidence, v int, _ int) (int, error) {
		return v, nil
	})
	_, err := RunAC[int](context.Background(), ac, con, 0, WithMaxRounds(3))
	if !errors.Is(err, ErrNoDecision) {
		t.Fatalf("err = %v, want ErrNoDecision", err)
	}
}

func TestRunACKeepParticipatingReturnsFirstDecision(t *testing.T) {
	round := 0
	ac := ACFunc[int](func(_ context.Context, v int, _ int) (Confidence, int, error) {
		round++
		return Commit, round, nil // commits a different value each round
	})
	con := ConciliatorFunc[int](func(_ context.Context, _ Confidence, v int, _ int) (int, error) {
		return v, nil
	})
	d, err := RunAC[int](context.Background(), ac, con, 0, WithMaxRounds(4), WithKeepParticipating())
	if err != nil {
		t.Fatal(err)
	}
	if d.Value != 1 || d.Round != 1 {
		t.Fatalf("decision = %+v, want the first commit", d)
	}
	if round != 4 {
		t.Fatalf("ac invoked %d times, want 4", round)
	}
}
