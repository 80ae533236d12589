package raft

import (
	"context"
	"errors"
	"fmt"
)

// ConsensusNode is the paper's Algorithm 7: Raft used to decide a single
// value. The node proposes D&S(v) whenever it becomes leader; the
// DecideOnce state machine decides on the first command ever applied —
// "the processor decides upon the first value it sees in its log" — and
// ignores everything after.
type ConsensusNode struct {
	node  *Node
	sm    *DecideOnce
	sub   *Subscription
	value any
}

// NewConsensusNode wraps cfg (whose StateMachine must be unset) for
// single-decree consensus on input value v.
func NewConsensusNode(cfg Config, v any) (*ConsensusNode, error) {
	if cfg.StateMachine != nil {
		return nil, errors.New("raft: NewConsensusNode owns the state machine; leave Config.StateMachine nil")
	}
	sm := NewDecideOnce()
	cfg.StateMachine = sm
	node, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return &ConsensusNode{node: node, sm: sm, sub: node.Subscribe(), value: v}, nil
}

// Node exposes the underlying Raft node (for status inspection and fault
// injection in tests).
func (c *ConsensusNode) Node() *Node { return c.node }

// Run starts the node and blocks until this processor decides or ctx is
// cancelled. It returns the decided value.
//
// Decisions are stable across processors by Raft's State Machine Safety:
// every processor applies the same entry at index 1, and DecideOnce takes
// exactly that entry. The apply worker emits EventApplied after Apply
// returns, so the Decided() re-check on each event never races the
// state machine.
func (c *ConsensusNode) Run(ctx context.Context) (any, error) {
	c.node.Start(ctx)
	for {
		if v, _, ok := c.sm.Decided(); ok {
			return v, nil
		}
		ev, err := c.sub.Next(ctx)
		if err != nil {
			return nil, fmt.Errorf("raft: consensus: %w", err)
		}
		switch ev.Kind {
		case EventBecameLeader:
			// "Once leader, the processor tries to have the system decide
			// upon its value." Propose may race with a concurrent step-
			// down; ErrNotLeader is then expected and harmless.
			if _, err := c.node.Propose(ctx, DS{Value: c.value}); err != nil {
				var nl ErrNotLeader
				if !errors.As(err, &nl) {
					return nil, fmt.Errorf("raft: consensus propose: %w", err)
				}
			}
		case EventApplied:
			if v, _, ok := c.sm.Decided(); ok {
				return v, nil
			}
		}
	}
}

// Decided reports this processor's decision so far.
func (c *ConsensusNode) Decided() (any, bool) {
	v, _, ok := c.sm.Decided()
	return v, ok
}
