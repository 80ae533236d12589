package phaseking

import (
	"context"
	"fmt"
	"sync"

	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/netsim"
	"ooc/internal/trace"
)

// DecisionRule selects how the composed protocol turns object outputs
// into a decision.
type DecisionRule int

const (
	// RuleFirstCommit is the paper's Algorithm 2 rule: decide the first
	// committed value (and, per Section 4.1, keep participating). See the
	// package comment for the Byzantine-king caveat this rule carries.
	RuleFirstCommit DecisionRule = iota + 1
	// RuleFinalValue is the classical Phase-King rule: run all phases and
	// decide the final preference. Safe under any 3t < n adversary.
	RuleFinalValue
)

// option is the template setting that carries out the rule: both keep
// the processor in every phase.
func (r DecisionRule) option() core.Option {
	if r == RuleFinalValue {
		return core.WithFinalValue()
	}
	return core.WithKeepParticipating()
}

// Config describes one Phase-King execution.
type Config struct {
	// N is the total processor count; T the Byzantine bound, 3T < N.
	N, T int
	// Inputs maps each correct processor to its binary input. Every id in
	// [0, N) must appear in exactly one of Inputs and Byzantine.
	Inputs map[int]int
	// Byzantine maps faulty processor ids to their behaviours.
	Byzantine map[int]Adversary
	// Rounds bounds the run; 0 means T+2, which guarantees that every
	// correct processor observes a commit (the first T+1 kings include a
	// correct one, and unanimity commits one round later).
	Rounds int
	// Rule selects the decision rule; 0 means RuleFirstCommit.
	Rule DecisionRule
	// Recorder, if non-nil, receives the run's trace.
	Recorder *trace.Recorder
	// Metrics, if non-nil, receives exchange counters and, under Run with
	// either rule, the template's per-object invoke-latency histograms.
	Metrics *metrics.Registry
}

func (c *Config) normalize() error {
	if c.Rounds == 0 {
		c.Rounds = c.T + 2
	}
	if c.Rule == 0 {
		c.Rule = RuleFirstCommit
	}
	if c.Rule != RuleFirstCommit && c.Rule != RuleFinalValue {
		return fmt.Errorf("phaseking: unknown decision rule %d", c.Rule)
	}
	if len(c.Inputs)+len(c.Byzantine) != c.N {
		return fmt.Errorf("phaseking: %d inputs + %d byzantine != n=%d",
			len(c.Inputs), len(c.Byzantine), c.N)
	}
	if len(c.Byzantine) > c.T {
		return fmt.Errorf("phaseking: %d byzantine processors exceed bound t=%d", len(c.Byzantine), c.T)
	}
	for id := 0; id < c.N; id++ {
		_, correct := c.Inputs[id]
		_, faulty := c.Byzantine[id]
		if correct == faulty {
			return fmt.Errorf("phaseking: processor %d must be exactly one of correct/byzantine", id)
		}
	}
	return nil
}

// Result carries each correct processor's outcome.
type Result struct {
	// Decisions holds the decision of every correct processor that
	// decided; Errs holds failures (absent on success).
	Decisions map[int]core.Decision[int]
	Errs      map[int]error
}

// AgreementHolds reports whether all decided processors agree.
func (r Result) AgreementHolds() bool {
	first, have := 0, false
	for _, d := range r.Decisions {
		if !have {
			first, have = d.Value, true
		} else if d.Value != first {
			return false
		}
	}
	return true
}

// Run executes the paper's decomposition — Algorithm 3's AC and
// Algorithm 4's conciliator under the core.RunAC template — with the
// configured adversaries, and returns each correct processor's decision.
func Run(ctx context.Context, cfg Config) (Result, error) {
	return run(ctx, cfg, runDecomposedProcessor)
}

// RunBaseline executes the classic monolithic Phase-King protocol under
// the same configuration, as the comparison baseline.
func RunBaseline(ctx context.Context, cfg Config) (Result, error) {
	return run(ctx, cfg, runMonolithicProcessor)
}

type processorFunc func(ctx context.Context, net *netsim.SyncNetwork, id int, cfg Config) (core.Decision[int], error)

func run(ctx context.Context, cfg Config, proc processorFunc) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	net := netsim.NewSync(cfg.N, cfg.Recorder)
	defer net.Close()

	// Byzantine processors: submit adversarial vectors until the network
	// closes under them.
	var byzWG sync.WaitGroup
	for id, adv := range cfg.Byzantine {
		byzWG.Add(1)
		go func(id int, adv Adversary) {
			defer byzWG.Done()
			adaptive, _ := adv.(AdaptiveAdversary)
			for exchange := 0; ; exchange++ {
				vec := adv.Vector(exchange, cfg.N, id)
				if vec == nil {
					vec = make([]any, cfg.N)
				}
				in, err := net.Exchange(id, vec)
				if err != nil {
					return
				}
				if adaptive != nil {
					adaptive.Observe(exchange, in)
				}
			}
		}(id, adv)
	}

	res := Result{
		Decisions: make(map[int]core.Decision[int], len(cfg.Inputs)),
		Errs:      make(map[int]error),
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for id := range cfg.Inputs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d, err := proc(ctx, net, id, cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.Errs[id] = err
				return
			}
			res.Decisions[id] = d
		}(id)
	}
	wg.Wait()
	net.Close()
	byzWG.Wait()
	return res, nil
}

// runDecomposedProcessor is one correct processor's life under the
// paper's decomposition.
func runDecomposedProcessor(ctx context.Context, net *netsim.SyncNetwork, id int, cfg Config) (core.Decision[int], error) {
	ac, con, err := NewObjects(net, id, cfg.T)
	if err != nil {
		return core.Decision[int]{}, err
	}
	ac.e.instrument(cfg.Metrics)
	d, err := core.RunAC[int](ctx, ac, con, cfg.Inputs[id],
		core.WithMaxRounds(cfg.Rounds),
		cfg.Rule.option(),
		core.WithRecorder(cfg.Recorder, id),
		core.WithMetrics(cfg.Metrics),
	)
	if err != nil {
		return core.Decision[int]{}, err
	}
	// If the final round committed, its king exchange was skipped;
	// perform it so every processor leaves the barrier aligned.
	if err := ac.syncToEnd(ctx, cfg.Rounds, d.Value); err != nil {
		return core.Decision[int]{}, err
	}
	return d, nil
}
