// Package checker verifies consensus safety properties over the results
// and traces of simulated runs: agreement, validity, termination, and the
// object-level coherence/convergence guarantees of AC and VAC objects.
// Every experiment in the benchmark harness funnels its runs through a
// checker, so a property violation in any configuration fails loudly
// rather than skewing a table.
package checker

import (
	"fmt"

	"ooc/internal/core"
)

// Violation is one property failure. A run may produce several.
type Violation struct {
	Property string // "agreement", "validity", "termination", ...
	Detail   string
}

// Error renders the violation; Violation satisfies error for convenient
// plumbing.
func (v Violation) Error() string { return fmt.Sprintf("%s violated: %s", v.Property, v.Detail) }

// Report aggregates violations from one or many runs.
type Report struct {
	Violations []Violation
	Runs       int
}

// Ok reports whether no property was violated.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Add appends a violation.
func (r *Report) Add(property, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Property: property, Detail: fmt.Sprintf(format, args...)})
}

// Merge folds another report in.
func (r *Report) Merge(other Report) {
	r.Violations = append(r.Violations, other.Violations...)
	r.Runs += other.Runs
}

// String summarizes the report.
func (r *Report) String() string {
	if r.Ok() {
		return fmt.Sprintf("ok (%d runs, 0 violations)", r.Runs)
	}
	return fmt.Sprintf("%d violations in %d runs; first: %v", len(r.Violations), r.Runs, r.Violations[0])
}

// RunOutcome is one processor's result in a consensus run, as the
// checkers consume it.
type RunOutcome[V comparable] struct {
	Node    int
	Decided bool
	Value   V
	Round   int
}

// Execution is one simulated run's record, indexed by processor id:
// what every protocol's runner (benor.Run, raft.Run, sharedmem.Run)
// returns.
type Execution[V comparable] struct {
	Decisions []core.Decision[V]
	Errs      []error
	// Crashed marks the processors the run crashed.
	Crashed []bool
}

// Outcomes returns the checker's view of the processors the run spared:
// a crashed processor owes no decision.
func (e Execution[V]) Outcomes() []RunOutcome[V] {
	var outs []RunOutcome[V]
	for id, d := range e.Decisions {
		if e.Crashed[id] {
			continue
		}
		o := RunOutcome[V]{Node: id}
		if e.Errs[id] == nil {
			o.Decided, o.Value, o.Round = true, d.Value, d.Round
		}
		outs = append(outs, o)
	}
	return outs
}

// MaxRound returns the latest round in which a spared processor decided,
// or 0 if none did.
func (e Execution[V]) MaxRound() int {
	latest := 0
	for _, o := range e.Outcomes() {
		if o.Decided {
			latest = max(latest, o.Round)
		}
	}
	return latest
}

// CheckConsensus verifies one run: agreement among deciders, validity of
// the decided value against the correct processors' inputs, and — when
// expectAll is set — termination (every listed processor decided).
func CheckConsensus[V comparable](outcomes []RunOutcome[V], inputs map[int]V, expectAll bool) Report {
	rep := Report{Runs: 1}
	var (
		first   V
		haveAny bool
	)
	for _, o := range outcomes {
		if !o.Decided {
			if expectAll {
				rep.Add("termination", "processor %d did not decide", o.Node)
			}
			continue
		}
		if !haveAny {
			first, haveAny = o.Value, true
		} else if o.Value != first {
			rep.Add("agreement", "processor %d decided %v, another decided %v", o.Node, o.Value, first)
		}
	}
	if !haveAny {
		rep.Add("termination", "no processor decided")
		return rep
	}
	valid := false
	for _, in := range inputs {
		if in == first {
			valid = true
		}
	}
	if !valid {
		rep.Add("validity", "decided %v, inputs %v", first, inputs)
	}
	return rep
}

// ObjectOutcome is one processor's (confidence, value) from a single
// invocation round of an AC or VAC object.
type ObjectOutcome[V comparable] struct {
	Node  int
	Conf  core.Confidence
	Value V
}

// CheckVACRound verifies the paper's four VAC guarantees over one round
// of outcomes: coherence over adopt & commit, coherence over vacillate &
// adopt, convergence, and validity.
func CheckVACRound[V comparable](outs []ObjectOutcome[V], inputs map[int]V) Report {
	rep := Report{Runs: 1}
	isInput := func(v V) bool {
		for _, in := range inputs {
			if in == v {
				return true
			}
		}
		return false
	}
	var (
		sawCommit, sawAdopt bool
		commitVal, adoptVal V
	)
	for _, o := range outs {
		if !o.Conf.Valid() {
			rep.Add("contract", "processor %d returned confidence %v", o.Node, o.Conf)
			continue
		}
		if !isInput(o.Value) {
			rep.Add("validity", "processor %d returned %v, not an input of %v", o.Node, o.Value, inputs)
		}
		switch o.Conf {
		case core.Commit:
			if sawCommit && o.Value != commitVal {
				rep.Add("coherence-ac", "commits with distinct values %v and %v", o.Value, commitVal)
			}
			sawCommit, commitVal = true, o.Value
		case core.Adopt:
			if sawAdopt && o.Value != adoptVal {
				rep.Add("coherence-va", "adopts with distinct values %v and %v", o.Value, adoptVal)
			}
			sawAdopt, adoptVal = true, o.Value
		}
	}
	if sawCommit {
		for _, o := range outs {
			if o.Conf == core.Vacillate {
				rep.Add("coherence-ac", "processor %d vacillates beside a commit of %v", o.Node, commitVal)
			} else if o.Value != commitVal {
				rep.Add("coherence-ac", "processor %d carries %v beside a commit of %v", o.Node, o.Value, commitVal)
			}
		}
	}
	if sawCommit && sawAdopt && commitVal != adoptVal {
		rep.Add("coherence-ac", "adopt value %v differs from commit value %v", adoptVal, commitVal)
	}
	if unanimous, v := unanimousInput(inputs); unanimous {
		for _, o := range outs {
			if o.Conf != core.Commit || o.Value != v {
				rep.Add("convergence", "processor %d got (%v, %v) on unanimous input %v", o.Node, o.Conf, o.Value, v)
			}
		}
	}
	return rep
}

// CheckACRound verifies AdoptCommit guarantees over one round: coherence,
// convergence, validity, and the no-vacillate contract.
func CheckACRound[V comparable](outs []ObjectOutcome[V], inputs map[int]V) Report {
	rep := Report{Runs: 1}
	isInput := func(v V) bool {
		for _, in := range inputs {
			if in == v {
				return true
			}
		}
		return false
	}
	var (
		sawCommit bool
		commitVal V
	)
	for _, o := range outs {
		if o.Conf != core.Adopt && o.Conf != core.Commit {
			rep.Add("contract", "processor %d returned %v from an AC", o.Node, o.Conf)
			continue
		}
		if !isInput(o.Value) {
			rep.Add("validity", "processor %d returned %v, not an input of %v", o.Node, o.Value, inputs)
		}
		if o.Conf == core.Commit {
			if sawCommit && o.Value != commitVal {
				rep.Add("coherence", "commits with distinct values %v and %v", o.Value, commitVal)
			}
			sawCommit, commitVal = true, o.Value
		}
	}
	if sawCommit {
		for _, o := range outs {
			if o.Value != commitVal {
				rep.Add("coherence", "processor %d carries %v beside a commit of %v", o.Node, o.Value, commitVal)
			}
		}
	}
	if unanimous, v := unanimousInput(inputs); unanimous {
		for _, o := range outs {
			if o.Conf != core.Commit || o.Value != v {
				rep.Add("convergence", "processor %d got (%v, %v) on unanimous input %v", o.Node, o.Conf, o.Value, v)
			}
		}
	}
	return rep
}

func unanimousInput[V comparable](inputs map[int]V) (bool, V) {
	var (
		first V
		have  bool
	)
	for _, v := range inputs {
		if !have {
			first, have = v, true
		} else if v != first {
			return false, first
		}
	}
	return have, first
}
