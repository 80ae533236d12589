package checker

import (
	"strings"
	"testing"

	"ooc/internal/core"
)

func TestCheckConsensusClean(t *testing.T) {
	outs := []RunOutcome[int]{
		{Node: 0, Decided: true, Value: 1, Round: 2},
		{Node: 1, Decided: true, Value: 1, Round: 3},
	}
	rep := CheckConsensus(outs, map[int]int{0: 1, 1: 0}, true)
	if !rep.Ok() {
		t.Fatalf("clean run flagged: %v", rep)
	}
	if rep.Runs != 1 {
		t.Fatalf("Runs = %d", rep.Runs)
	}
}

func TestCheckConsensusAgreementViolation(t *testing.T) {
	outs := []RunOutcome[int]{
		{Node: 0, Decided: true, Value: 0},
		{Node: 1, Decided: true, Value: 1},
	}
	rep := CheckConsensus(outs, map[int]int{0: 0, 1: 1}, true)
	if rep.Ok() {
		t.Fatal("disagreement not flagged")
	}
	if rep.Violations[0].Property != "agreement" {
		t.Fatalf("property = %q", rep.Violations[0].Property)
	}
}

func TestCheckConsensusValidityViolation(t *testing.T) {
	outs := []RunOutcome[int]{{Node: 0, Decided: true, Value: 7}}
	rep := CheckConsensus(outs, map[int]int{0: 0, 1: 1}, false)
	if rep.Ok() || rep.Violations[0].Property != "validity" {
		t.Fatalf("report = %v", rep)
	}
}

func TestCheckConsensusTermination(t *testing.T) {
	outs := []RunOutcome[int]{
		{Node: 0, Decided: true, Value: 0},
		{Node: 1, Decided: false},
	}
	if rep := CheckConsensus(outs, map[int]int{0: 0}, true); rep.Ok() {
		t.Fatal("missing decision not flagged with expectAll")
	}
	if rep := CheckConsensus(outs, map[int]int{0: 0}, false); !rep.Ok() {
		t.Fatalf("partial decisions flagged without expectAll: %v", rep)
	}
	none := []RunOutcome[int]{{Node: 0}, {Node: 1}}
	if rep := CheckConsensus(none, map[int]int{0: 0}, false); rep.Ok() {
		t.Fatal("zero decisions not flagged")
	}
}

func TestCheckVACRoundClean(t *testing.T) {
	outs := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Commit, Value: 1},
		{Node: 1, Conf: core.Adopt, Value: 1},
		{Node: 2, Conf: core.Commit, Value: 1},
	}
	rep := CheckVACRound(outs, map[int]int{0: 1, 1: 0, 2: 1})
	if !rep.Ok() {
		t.Fatalf("clean VAC round flagged: %v", rep)
	}
}

func TestCheckVACRoundCoherenceAC(t *testing.T) {
	outs := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Commit, Value: 1},
		{Node: 1, Conf: core.Vacillate, Value: 0},
	}
	rep := CheckVACRound(outs, map[int]int{0: 1, 1: 0})
	if rep.Ok() {
		t.Fatal("vacillate beside commit not flagged")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Property == "coherence-ac" {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong properties: %v", rep.Violations)
	}
}

func TestCheckVACRoundAdoptMismatch(t *testing.T) {
	outs := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Adopt, Value: 0},
		{Node: 1, Conf: core.Adopt, Value: 1},
	}
	rep := CheckVACRound(outs, map[int]int{0: 0, 1: 1})
	if rep.Ok() {
		t.Fatal("conflicting adopts not flagged")
	}
}

func TestCheckVACRoundConvergence(t *testing.T) {
	outs := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Adopt, Value: 1},
		{Node: 1, Conf: core.Commit, Value: 1},
	}
	rep := CheckVACRound(outs, map[int]int{0: 1, 1: 1})
	if rep.Ok() {
		t.Fatal("non-commit on unanimous input not flagged")
	}
	if rep.Violations[0].Property != "convergence" {
		t.Fatalf("property = %q", rep.Violations[0].Property)
	}
}

func TestCheckVACRoundInvalidConfidence(t *testing.T) {
	outs := []ObjectOutcome[int]{{Node: 0, Conf: core.Confidence(9), Value: 0}}
	rep := CheckVACRound(outs, map[int]int{0: 0})
	if rep.Ok() || rep.Violations[0].Property != "contract" {
		t.Fatalf("report = %v", rep)
	}
}

func TestCheckACRound(t *testing.T) {
	clean := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Commit, Value: 1},
		{Node: 1, Conf: core.Adopt, Value: 1},
	}
	if rep := CheckACRound(clean, map[int]int{0: 1, 1: 0}); !rep.Ok() {
		t.Fatalf("clean AC round flagged: %v", rep)
	}
	vacillating := []ObjectOutcome[int]{{Node: 0, Conf: core.Vacillate, Value: 0}}
	if rep := CheckACRound(vacillating, map[int]int{0: 0}); rep.Ok() {
		t.Fatal("vacillating AC not flagged")
	}
	incoherent := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Commit, Value: 1},
		{Node: 1, Conf: core.Adopt, Value: 0},
	}
	if rep := CheckACRound(incoherent, map[int]int{0: 1, 1: 0}); rep.Ok() {
		t.Fatal("incoherent AC round not flagged")
	}
	diverging := []ObjectOutcome[int]{
		{Node: 0, Conf: core.Adopt, Value: 1},
		{Node: 1, Conf: core.Adopt, Value: 1},
	}
	if rep := CheckACRound(diverging, map[int]int{0: 1, 1: 1}); rep.Ok() {
		t.Fatal("convergence failure not flagged")
	}
}

func TestReportMergeAndString(t *testing.T) {
	var a, b Report
	a.Runs = 1
	b.Runs = 2
	b.Add("agreement", "boom %d", 7)
	a.Merge(b)
	if a.Runs != 3 || len(a.Violations) != 1 {
		t.Fatalf("merged = %+v", a)
	}
	if !strings.Contains(a.String(), "agreement") {
		t.Fatalf("String() = %q", a.String())
	}
	var ok Report
	ok.Runs = 5
	if !strings.Contains(ok.String(), "ok") {
		t.Fatalf("String() = %q", ok.String())
	}
	var v error = Violation{Property: "p", Detail: "d"}
	if v.Error() != "p violated: d" {
		t.Fatalf("Error() = %q", v.Error())
	}
}

// TestExecutionCountsOnlySparedDeciders: Outcomes leaves the crashed out
// and lists the undecided; MaxRound reads only the spared deciders.
func TestExecutionCountsOnlySparedDeciders(t *testing.T) {
	ex := Execution[int]{
		Decisions: []core.Decision[int]{{Value: 1, Round: 2}, {Value: 1, Round: 9}, {Value: 0, Round: 7}, {Value: 1, Round: 3}},
		Errs:      []error{nil, nil, core.ErrNoDecision, nil},
		Crashed:   []bool{false, true, false, false},
	}
	outs := ex.Outcomes()
	want := []RunOutcome[int]{{Node: 0, Decided: true, Value: 1, Round: 2}, {Node: 2}, {Node: 3, Decided: true, Value: 1, Round: 3}}
	if len(outs) != len(want) {
		t.Fatalf("outcomes %+v, want %+v", outs, want)
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("outcomes %+v, want %+v", outs, want)
		}
	}
	if got := ex.MaxRound(); got != 3 {
		t.Fatalf("MaxRound = %d, want 3", got)
	}
}
