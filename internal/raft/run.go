package raft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ooc/internal/checker"
	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/netsim"
	"ooc/internal/sim"
	"ooc/internal/trace"
)

// Processor is one node's whole single-decree run: Decree (Algorithm 7)
// or VACConsensus (Algorithms 10–11). Each sets the node setting its
// algorithm needs, then subscribes, starts the node — always: Run's
// leader watcher ends when the node stops — and runs it until this
// processor decides.
type Processor[V comparable] interface {
	configure(cfg *Config)
	run(ctx context.Context, node *Node, v V, opts ...core.Option) (core.Decision[V], error)
}

// Decree is the paper's Algorithm 7: Raft used to decide a single value.
// The node proposes D&S(v) whenever it becomes leader; the DecideOnce
// state machine decides on the first command ever applied — "the
// processor decides upon the first value it sees in its log" — and
// ignores everything after. The decision's round is the node's term when
// it decided.
//
// Decisions are stable across processors by Raft's State Machine Safety:
// every processor applies the same entry at index 1, and DecideOnce takes
// exactly that entry. The apply worker emits EventApplied after Apply
// returns, so the Decided() check on each event never races the state
// machine.
type Decree[V comparable] struct{}

func (Decree[V]) configure(cfg *Config) { cfg.StateMachine = NewDecideOnce() }

func (Decree[V]) run(ctx context.Context, node *Node, v V, opts ...core.Option) (core.Decision[V], error) {
	o := core.OptionsFrom(opts...)
	sm := node.cfg.StateMachine.(*DecideOnce)
	sub := node.Subscribe(EventBecameLeader, EventApplied)
	node.Start(ctx)
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			return core.Decision[V]{}, fmt.Errorf("raft: consensus: %w", err)
		}
		switch ev.Kind {
		case EventBecameLeader:
			// "Once leader, the processor tries to have the system decide
			// upon its value." Propose may race with a concurrent step-
			// down; ErrNotLeader is then expected and harmless.
			if _, err := node.Propose(ctx, DS{Value: v}); err != nil {
				var nl ErrNotLeader
				if !errors.As(err, &nl) {
					return core.Decision[V]{}, fmt.Errorf("raft: consensus propose: %w", err)
				}
			}
		case EventApplied:
			if u, _, ok := sm.Decided(); ok {
				o.Recorder.Decide(o.Node, ev.Term, u)
				return core.Decision[V]{Value: u.(V), Round: ev.Term}, nil
			}
		}
	}
}

// VACConsensus wires Algorithms 10 and 11 under the generic template
// (Algorithm 1): the VAC and Reconciliator over a ManualCampaign node,
// run by core.RunVAC. The node keeps serving the cluster (heartbeats,
// commit propagation) after the local decision — matching the paper's
// observation that the protocol is unending while eventually everyone
// commits.
type VACConsensus[V comparable] struct{}

func (VACConsensus[V]) configure(cfg *Config) { cfg.ManualCampaign = true }

func (VACConsensus[V]) run(ctx context.Context, node *Node, v V, opts ...core.Option) (core.Decision[V], error) {
	vac := &VAC[V]{node: node, sub: node.Subscribe()} // configure set ManualCampaign
	node.Start(ctx)
	return core.RunVAC[V](ctx, vac, NewReconciliator[V](node), v, opts...)
}

// RunConfig describes one simulated single-decree execution.
type RunConfig[V comparable] struct {
	// Inputs holds each node's input, indexed by id; its length is n.
	Inputs []V
	// Seed fixes the network's delivery order and the election timers:
	// node id draws from sim.NewRNG(Seed).Fork(id).
	Seed uint64
	// ElectionTimeout and HeartbeatInterval set every node's timers.
	ElectionTimeout   time.Duration
	HeartbeatInterval time.Duration
	// CrashLeader crashes the first node to win an election.
	CrashLeader bool
	// Recorder, if non-nil, receives the network's messages and every
	// processor's template events and decision.
	Recorder *trace.Recorder
	// Metrics, if non-nil, receives the network's, the nodes' and the
	// processors' telemetry.
	Metrics *metrics.Registry
}

// Run builds a seeded simulated network of len(cfg.Inputs) Raft nodes,
// runs proc on every node at once, and returns when all of them have
// returned; the nodes stop then.
func Run[V comparable](ctx context.Context, cfg RunConfig[V], proc Processor[V]) checker.Execution[V] {
	n := len(cfg.Inputs)
	nw := netsim.New(n, netsim.WithSeed(cfg.Seed), netsim.WithRecorder(cfg.Recorder), netsim.WithMetrics(cfg.Metrics))
	rng := sim.NewRNG(cfg.Seed)
	res := checker.Execution[V]{
		Decisions: make([]core.Decision[V], n),
		Errs:      make([]error, n),
		Crashed:   make([]bool, n),
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	nodes := make([]*Node, n)
	for id := range n {
		nc := Config{ID: id, Endpoint: nw.Node(id), RNG: rng.Fork(uint64(id)),
			ElectionTimeout: cfg.ElectionTimeout, HeartbeatInterval: cfg.HeartbeatInterval, Metrics: cfg.Metrics}
		proc.configure(&nc)
		nodes[id], res.Errs[id] = NewNode(nc)
	}

	var watchers sync.WaitGroup
	if cfg.CrashLeader {
		var first sync.Once
		for id, node := range nodes {
			if node == nil {
				continue
			}
			// Subscribed before Start, and read past cancel: the node's
			// stop ends the wait only after the queued events, so a win
			// that happened is always seen.
			won := node.Subscribe(EventBecameLeader)
			watchers.Add(1)
			go func() {
				defer watchers.Done()
				if _, err := won.Next(context.WithoutCancel(ctx)); err == nil {
					first.Do(func() {
						res.Crashed[id] = true
						nw.Crash(id)
					})
				}
			}()
		}
	}

	var wg sync.WaitGroup
	for id, node := range nodes {
		if node == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Decisions[id], res.Errs[id] = proc.run(ctx, node, cfg.Inputs[id],
				core.WithRecorder(cfg.Recorder, id), core.WithMetrics(cfg.Metrics))
		}()
	}
	wg.Wait()
	cancel()
	watchers.Wait()
	return res
}
