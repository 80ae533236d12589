package phaseking

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// mustRun runs the decomposed protocol and fails the test on any
// processor error.
func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(ctxT(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, procErr := range res.Errs {
		t.Fatalf("processor %d: %v", id, procErr)
	}
	return res
}

// checkAgreementValidity asserts safety and returns the decided value.
func checkAgreementValidity(t *testing.T, res Result, inputs map[int]int) int {
	t.Helper()
	if !res.AgreementHolds() {
		t.Fatalf("agreement violated: %v", res.Decisions)
	}
	if len(res.Decisions) != len(inputs) {
		t.Fatalf("%d of %d correct processors decided", len(res.Decisions), len(inputs))
	}
	var decided int
	for _, d := range res.Decisions {
		decided = d.Value
		break
	}
	valid := false
	for _, in := range inputs {
		if in == decided {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("validity violated: decided %d, inputs %v", decided, inputs)
	}
	return decided
}

func correctInputs(ids []int, vals []int) map[int]int {
	m := make(map[int]int, len(ids))
	for i, id := range ids {
		m[id] = vals[i]
	}
	return m
}

func TestUnanimousNoFaultsCommitsRoundOne(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		for _, v := range []int{0, 1} {
			inputs := make(map[int]int, n)
			for id := 0; id < n; id++ {
				inputs[id] = v
			}
			res := mustRun(t, Config{N: n, T: (n - 1) / 3, Inputs: inputs})
			got := checkAgreementValidity(t, res, inputs)
			if got != v {
				t.Fatalf("n=%d: decided %d with unanimous input %d", n, got, v)
			}
			for id, d := range res.Decisions {
				if d.Round != 1 {
					t.Fatalf("n=%d processor %d decided in round %d, want 1 (convergence)", n, id, d.Round)
				}
			}
		}
	}
}

func TestMixedInputsNoFaults(t *testing.T) {
	inputs := correctInputs([]int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 0, 1, 0, 1, 0})
	res := mustRun(t, Config{N: 7, T: 2, Inputs: inputs})
	checkAgreementValidity(t, res, inputs)
}

func TestAdversaries(t *testing.T) {
	// Byzantine processors occupy the early king slots — the adversary's
	// strongest placement.
	cases := []struct {
		name string
		adv  func() Adversary
	}{
		{"silent", func() Adversary { return SilentAdversary{} }},
		{"equivocate", func() Adversary { return EquivocateAdversary{} }},
		{"garbage", func() Adversary { return GarbageAdversary{} }},
		{"spoiler", func() Adversary { return &SpoilerAdversary{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
				byz := make(map[int]Adversary, cfg.t)
				for id := 0; id < cfg.t; id++ {
					byz[id] = tc.adv()
				}
				inputs := make(map[int]int)
				for id := cfg.t; id < cfg.n; id++ {
					inputs[id] = id % 2
				}
				for _, rule := range []DecisionRule{RuleFirstCommit, RuleFinalValue} {
					res := mustRun(t, Config{
						N: cfg.n, T: cfg.t, Inputs: inputs, Byzantine: byz, Rule: rule,
					})
					checkAgreementValidity(t, res, inputs)
				}
			}
		})
	}
}

func TestRandomAdversarySeeds(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		byz := map[int]Adversary{0: &RandomAdversary{RNG: sim.NewRNG(seed)}}
		inputs := correctInputs([]int{1, 2, 3}, []int{1, 0, 1})
		res := mustRun(t, Config{N: 4, T: 1, Inputs: inputs, Byzantine: byz, Rule: RuleFinalValue})
		checkAgreementValidity(t, res, inputs)
	}
}

func TestUnanimityBeatsByzantine(t *testing.T) {
	// Strong validity: when all correct processors propose the same v,
	// the Byzantine minority cannot move the decision.
	for _, v := range []int{0, 1} {
		byz := map[int]Adversary{0: EquivocateAdversary{}, 1: &RandomAdversary{RNG: sim.NewRNG(5)}}
		inputs := correctInputs([]int{2, 3, 4, 5, 6}, []int{v, v, v, v, v})
		for _, rule := range []DecisionRule{RuleFirstCommit, RuleFinalValue} {
			res := mustRun(t, Config{N: 7, T: 2, Inputs: inputs, Byzantine: byz, Rule: rule})
			if got := checkAgreementValidity(t, res, inputs); got != v {
				t.Fatalf("rule %d: decided %d with unanimous correct input %d", rule, got, v)
			}
		}
	}
}

func TestKingDiversionBreaksFirstCommit(t *testing.T) {
	// The reproduction finding (see package comment): the paper's
	// first-commit rule is unsound under a Byzantine round-1 king. This
	// test pins the attack: processor 1 decides 0, processors 2 and 3
	// decide 1.
	byz := map[int]Adversary{0: KingDiversionAdversary()}
	inputs := correctInputs([]int{1, 2, 3}, []int{0, 0, 1})
	res := mustRun(t, Config{N: 4, T: 1, Inputs: inputs, Byzantine: byz, Rule: RuleFirstCommit})
	if res.AgreementHolds() {
		t.Fatalf("expected the king-diversion adversary to break first-commit agreement; decisions: %v",
			res.Decisions)
	}
	if d := res.Decisions[1]; d.Value != 0 || d.Round != 1 {
		t.Fatalf("processor 1 decided %+v, attack expects (0, round 1)", d)
	}
	if d := res.Decisions[2]; d.Value != 1 {
		t.Fatalf("processor 2 decided %+v, attack expects value 1", d)
	}
}

func TestKingDiversionHarmlessUnderFinalValue(t *testing.T) {
	byz := map[int]Adversary{0: KingDiversionAdversary()}
	inputs := correctInputs([]int{1, 2, 3}, []int{0, 0, 1})
	res := mustRun(t, Config{N: 4, T: 1, Inputs: inputs, Byzantine: byz, Rule: RuleFinalValue})
	checkAgreementValidity(t, res, inputs)
}

func TestKingDiversionHarmlessAgainstBaseline(t *testing.T) {
	byz := map[int]Adversary{0: KingDiversionAdversary()}
	inputs := correctInputs([]int{1, 2, 3}, []int{0, 0, 1})
	res, err := RunBaseline(ctxT(t), Config{N: 4, T: 1, Inputs: inputs, Byzantine: byz})
	if err != nil {
		t.Fatal(err)
	}
	for id, procErr := range res.Errs {
		t.Fatalf("processor %d: %v", id, procErr)
	}
	checkAgreementValidity(t, res, inputs)
}

func TestBaselineMatchesDecomposed(t *testing.T) {
	inputs := correctInputs([]int{1, 2, 3, 4, 5, 6}, []int{0, 1, 1, 0, 1, 1})
	byz := map[int]Adversary{0: EquivocateAdversary{}}
	base, err := RunBaseline(ctxT(t), Config{N: 7, T: 2, Inputs: inputs, Byzantine: byz})
	if err != nil {
		t.Fatal(err)
	}
	dec := mustRun(t, Config{N: 7, T: 2, Inputs: inputs, Byzantine: byz, Rule: RuleFinalValue})
	b := checkAgreementValidity(t, base, inputs)
	d := checkAgreementValidity(t, dec, inputs)
	if b != d {
		t.Fatalf("baseline decided %d, decomposition decided %d on identical adversary", b, d)
	}
}

// TestBothRulesExportObjectMetrics: both decision rules run the
// template's round loop, so both export its per-object invoke histograms.
func TestBothRulesExportObjectMetrics(t *testing.T) {
	inputs := correctInputs([]int{0, 1, 2, 3}, []int{0, 1, 1, 0})
	for _, rule := range []DecisionRule{RuleFirstCommit, RuleFinalValue} {
		reg := metrics.NewRegistry()
		mustRun(t, Config{N: 4, T: 1, Inputs: inputs, Rule: rule, Metrics: reg})
		hists := reg.Snapshot().Histograms
		// Round 1 splits 2–2, so all adopt and take the king's value;
		// rounds 2 and 3 commit it.
		for call, want := range map[[2]string]int64{{"ac", "adopt"}: 4, {"ac", "commit"}: 8, {"conciliator", "value"}: 4} {
			name := metrics.Label("ooc_object_invoke_seconds", "object", call[0], "outcome", call[1])
			if got := hists[name].Count; got != want {
				t.Errorf("rule %d: %s count = %d, want %d", rule, name, got, want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "fault bound",
			cfg:  Config{N: 3, T: 1, Inputs: map[int]int{0: 0, 1: 0, 2: 0}},
			want: "3t < n",
		},
		{
			name: "coverage",
			cfg:  Config{N: 4, T: 1, Inputs: map[int]int{0: 0, 1: 0}},
			want: "inputs",
		},
		{
			name: "too many byzantine",
			cfg: Config{N: 4, T: 1,
				Inputs:    map[int]int{2: 0, 3: 0},
				Byzantine: map[int]Adversary{0: SilentAdversary{}, 1: SilentAdversary{}}},
			want: "exceed",
		},
		{
			name: "unknown rule",
			cfg:  Config{N: 4, T: 1, Inputs: map[int]int{0: 0, 1: 0, 2: 0, 3: 0}, Rule: RuleFinalValue + 1},
			want: "unknown decision rule",
		},
		{
			name: "overlap",
			cfg: Config{N: 4, T: 1,
				Inputs:    map[int]int{0: 0, 1: 0, 2: 0, 3: 0},
				Byzantine: map[int]Adversary{0: SilentAdversary{}}},
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(ctxT(t), tc.cfg)
			if err == nil && tc.name == "fault bound" {
				// The fault bound surfaces per-processor; every other
				// case is rejected before the run.
				bad := false
				for _, e := range res.Errs {
					if e != nil {
						bad = true
					}
				}
				if !bad {
					t.Fatalf("invalid config accepted: %+v", tc.cfg)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// acOutcome is one processor's single-round AC output.
type acOutcome struct {
	conf core.Confidence
	val  int
	err  error
}

// oneACRound runs exactly one AC.Propose on every correct processor with
// the given Byzantine adversaries in the mix.
func oneACRound(t *testing.T, n, tFaults int, inputs map[int]int, byz map[int]Adversary) map[int]acOutcome {
	t.Helper()
	net := netsim.NewSync(n, nil)
	defer net.Close()
	var byzWG sync.WaitGroup
	for id, adv := range byz {
		byzWG.Add(1)
		go func(id int, adv Adversary) {
			defer byzWG.Done()
			for ex := 0; ; ex++ {
				if _, err := net.Exchange(id, adv.Vector(ex, n, id)); err != nil {
					return
				}
			}
		}(id, adv)
	}
	outs := make(map[int]acOutcome, len(inputs))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for id, v := range inputs {
		wg.Add(1)
		go func(id, v int) {
			defer wg.Done()
			ac, err := NewAC(net, id, tFaults)
			if err != nil {
				mu.Lock()
				outs[id] = acOutcome{err: err}
				mu.Unlock()
				return
			}
			c, u, err := ac.Propose(ctxT(t), v, 1)
			mu.Lock()
			outs[id] = acOutcome{conf: c, val: u, err: err}
			mu.Unlock()
		}(id, v)
	}
	wg.Wait()
	net.Close()
	byzWG.Wait()
	return outs
}

func TestACCoherence(t *testing.T) {
	// Across many adversarial mixes: if anyone commits u, everyone
	// carries u.
	advs := []Adversary{SilentAdversary{}, EquivocateAdversary{}, GarbageAdversary{},
		&RandomAdversary{RNG: sim.NewRNG(3)}}
	for i, adv := range advs {
		inputs := correctInputs([]int{1, 2, 3, 4, 5, 6}, []int{0, 1, 0, 1, 1, (i) % 2})
		outs := oneACRound(t, 7, 2, inputs, map[int]Adversary{0: adv})
		committed, commitVal := false, 0
		for id, o := range outs {
			if o.err != nil {
				t.Fatalf("adv %d processor %d: %v", i, id, o.err)
			}
			if o.conf == core.Commit {
				if committed && o.val != commitVal {
					t.Fatalf("adv %d: two commits, values %d and %d", i, o.val, commitVal)
				}
				committed, commitVal = true, o.val
			}
			if o.conf != core.Commit && o.conf != core.Adopt {
				t.Fatalf("adv %d: AC returned %v", i, o.conf)
			}
		}
		if committed {
			for id, o := range outs {
				if o.val != commitVal {
					t.Fatalf("adv %d: processor %d carries %d, committed value %d", i, id, o.val, commitVal)
				}
			}
		}
	}
}

func TestACConvergence(t *testing.T) {
	for _, v := range []int{0, 1} {
		inputs := correctInputs([]int{1, 2, 3}, []int{v, v, v})
		outs := oneACRound(t, 4, 1, inputs, map[int]Adversary{0: EquivocateAdversary{}})
		for id, o := range outs {
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.conf != core.Commit || o.val != v {
				t.Fatalf("processor %d got (%v, %d) with unanimous correct input %d", id, o.conf, o.val, v)
			}
		}
	}
}

func TestACRejectsBadInput(t *testing.T) {
	net := netsim.NewSync(4, nil)
	defer net.Close()
	ac, err := NewAC(net, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ac.Propose(context.Background(), 2, 1); err == nil {
		t.Fatal("marker value 2 accepted as input")
	}
}

func TestNewACRejectsBadBounds(t *testing.T) {
	net := netsim.NewSync(3, nil)
	defer net.Close()
	if _, err := NewAC(net, 0, 1); err == nil {
		t.Fatal("3t >= n accepted")
	}
	if _, err := NewAC(net, 0, -1); err == nil {
		t.Fatal("negative t accepted")
	}
}

func TestClampBinary(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 5: 1, -3: 0}
	for in, want := range cases {
		if got := clampBinary(in); got != want {
			t.Errorf("clampBinary(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBinaryOrDefault(t *testing.T) {
	if got := binaryOrDefault(1, 0); got != 1 {
		t.Errorf("binaryOrDefault(1) = %d", got)
	}
	if got := binaryOrDefault("lie", 0); got != 0 {
		t.Errorf("garbage not defaulted: %d", got)
	}
	if got := binaryOrDefault(nil, 1); got != 1 {
		t.Errorf("nil not defaulted: %d", got)
	}
	if got := binaryOrDefault(2, 0); got != 0 {
		t.Errorf("out-of-domain int not defaulted: %d", got)
	}
}
