package raft

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ooc/internal/rtrace"
	"ooc/internal/sim"
)

// Client submits commands to a Raft cluster with the retry logic every
// real deployment needs: it follows ErrNotLeader redirects, falls back to
// round-robin probing when no leader is known, retries across elections,
// and optionally waits until the command is applied locally on the
// contacted node. It is the API cmd/raftkv and the examples build on.
//
// The client only needs handles to the nodes it may contact; in a
// multi-process deployment that is typically one local node.
type Client struct {
	nodes    []*Node
	backoff  time.Duration // base retry pause (clientBackoff); doubles per attempt up to 32×
	rng      *sim.RNG      // jitter source; deterministic under a fixed seed
	readMode ReadConsistency
	tracer   *rtrace.Tracer // nil = tracing disabled
	leader   atomic.Int32   // last node that served a read, or redirect hint; -1 unknown
	rr       atomic.Int64   // round-robin cursor for stale reads
}

// clientBackoff is the base retry pause: the closed-loop setting every
// deployment runs.
const clientBackoff = time.Millisecond

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientRNG injects the jitter source, letting simulations keep
// client retry timing on a deterministic seed.
func WithClientRNG(rng *sim.RNG) ClientOption {
	return func(c *Client) { c.rng = rng }
}

// WithReadConsistency sets the default mode Client.Read uses (the zero
// default is ReadLinearizable).
func WithReadConsistency(rc ReadConsistency) ClientOption {
	return func(c *Client) { c.readMode = rc }
}

// WithClientTracer samples per-request spans into t: SubmitWait and
// ReadWith open a span per call, thread its ID through the node's
// propose/read paths via the context, and close it with the outcome.
// The same tracer should be handed to the cluster's nodes
// (Config.Tracer) so the per-phase attribution lands in the same spans.
func WithClientTracer(t *rtrace.Tracer) ClientOption {
	return func(c *Client) { c.tracer = t }
}

// NewClient builds a client over the contactable nodes.
func NewClient(nodes []*Node, opts ...ClientOption) (*Client, error) {
	if len(nodes) == 0 {
		return nil, errors.New("raft: client needs at least one node")
	}
	c := &Client{
		nodes:   append([]*Node(nil), nodes...),
		backoff: clientBackoff,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.rng == nil {
		c.rng = sim.NewRNG(0x0c11e47ba7c0ffee)
	}
	c.leader.Store(-1)
	return c, nil
}

// nextBackoff computes the pause after attempt consecutive failures:
// exponential growth capped at 32× the base, with "equal jitter" — half
// the window is deterministic, half uniform — so a burst of clients
// retrying after the same election does not thunder back in lockstep.
func (c *Client) nextBackoff(attempt int) time.Duration {
	limit := 32 * c.backoff
	d := c.backoff
	for i := 0; i < attempt && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(c.rng.Int63()%int64(half))
}

// Submit proposes cmd, retrying across leader changes until some node
// accepts it into its log as leader. It returns the log index the leader
// assigned and the id of the node that accepted.
//
// Note the standard caveat: acceptance is not commitment. A leader that
// crashes right after accepting may lose the entry; use SubmitWait for
// commit-level guarantees, and make commands idempotent if you retry
// around SubmitWait errors (exactly-once needs client session state,
// which is out of scope here as in the Raft paper's core protocol).
func (c *Client) Submit(ctx context.Context, cmd any) (index int, node int, err error) {
	rep, _, node, err := c.submit(ctx, cmd, true)
	return rep.index, node, err
}

// submit proposes cmd through Node.propose, following redirects and
// probing past stopped nodes, and returns the accepting node's reply,
// the last applied index it saw there, and the node. With accept unset
// the call parks once, from the proposal to the apply: it returns when
// the entry is applied or its accepting term moved, and a node that stops
// first is probed past like any other.
func (c *Client) submit(ctx context.Context, cmd any, accept bool) (proposeReply, int, int, error) {
	probe := 0
	target := int(c.leader.Load()) // last known leader; -1 probes
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return proposeReply{}, 0, 0, fmt.Errorf("raft: client: %w", err)
		}
		id := target
		if id < 0 || id >= len(c.nodes) {
			id = probe % len(c.nodes)
			probe++
		}
		rep, applied := c.nodes[id].propose(ctx, cmd, accept)
		perr := rep.err
		if perr == nil {
			c.leader.Store(int32(id))
			return rep, applied, id, nil
		}
		var nl ErrNotLeader
		redirected := false
		switch {
		case errors.As(perr, &nl):
			target = nl.LeaderID // may be -1: falls back to probing
			if target == id {
				target = -1 // stale self-reference; probe elsewhere
			}
			redirected = target >= 0 && target < len(c.nodes)
		case errors.Is(perr, ErrStopped):
			target = -1 // that node is gone; probe the others
		default:
			return proposeReply{}, 0, 0, fmt.Errorf("raft: client submit: %w", perr)
		}
		if redirected && attempt < len(c.nodes) {
			// A concrete redirect: chase it immediately. Backing off
			// here added a full jittered sleep to every write issued
			// while the hint was cold — per-request tracing showed the
			// sleep dominating the leader queue + fsync + replication
			// phases combined. The chase is free only for one lap
			// around the cluster, so a stale redirect loop (two nodes
			// each pointing at the other mid-election) still backs off.
			continue
		}
		time.Sleep(c.nextBackoff(attempt))
	}
}

// SubmitWait proposes cmd and blocks until the accepting node has applied
// the entry at the assigned index — i.e. the command is committed and
// visible in that node's state machine. If leadership changes before
// commit it retries the submission from scratch.
func (c *Client) SubmitWait(ctx context.Context, cmd any) (index int, err error) {
	if id, ok := c.beginTrace(cmd); ok {
		ctx = rtrace.WithTrace(ctx, id)
		defer func() { c.tracer.End(id, err != nil) }()
	}
	for {
		rep, applied, id, err := c.submit(ctx, cmd, false)
		if err != nil {
			return 0, err
		}
		if applied >= rep.index {
			return rep.index, nil
		}
		kept, err := c.waitApplied(ctx, id, rep.index)
		if err != nil {
			return 0, err
		}
		if kept {
			return rep.index, nil
		}
		// The entry was lost to a leadership change; resubmit.
	}
}

// beginTrace samples a span for a write, labeled from the KV command
// when cmd is one. The origin is the client's current leader hint (-1
// when probing).
func (c *Client) beginTrace(cmd any) (rtrace.ID, bool) {
	if c.tracer == nil {
		return 0, false
	}
	op, key := fmt.Sprintf("%T", cmd), ""
	if kv, ok := cmd.(KVCommand); ok {
		op, key = kv.Op, kv.Key
	}
	return c.tracer.Begin(int(c.leader.Load()), op, key)
}

// KVGetter is the read surface Client.Read needs from a node's state
// machine. KVStore implements it; any state machine with point lookups
// can.
type KVGetter interface {
	Get(key string) (string, bool)
}

// Read looks up key with the client's default read consistency (set via
// WithReadConsistency; ReadLinearizable unless configured otherwise).
func (c *Client) Read(ctx context.Context, key string) (value string, found bool, err error) {
	return c.ReadWith(ctx, key, c.readMode)
}

// ReadWith looks up key with an explicit consistency mode.
//
//   - ReadLinearizable and ReadLease go through the node's read fast path
//     (Node.ReadIndexMode): the contacted node returns only after its
//     state machine has applied through a confirmed read index, so the
//     local Get that follows is linearizable. The client prefers the
//     cluster's current leader — follower forwarding works but adds a
//     relay hop — and follows redirects like Submit does.
//   - ReadStale reads any node's state machine with no coordination.
func (c *Client) ReadWith(ctx context.Context, key string, mode ReadConsistency) (value string, found bool, err error) {
	if c.tracer != nil {
		if id, ok := c.tracer.Begin(int(c.leader.Load()), "get:"+mode.String(), key); ok {
			ctx = rtrace.WithTrace(ctx, id)
			defer func() { c.tracer.End(id, err != nil) }()
		}
	}
	if mode == ReadStale {
		return c.readStale(ctx, key)
	}
	probe := 0
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return "", false, fmt.Errorf("raft: client: %w", err)
		}
		id := c.readTarget(&probe)
		_, rerr := c.nodes[id].ReadIndexMode(ctx, mode)
		if rerr == nil {
			c.leader.Store(int32(id))
			return c.get(id, key)
		}
		var nl ErrNotLeader
		switch {
		case errors.As(rerr, &nl):
			if nl.LeaderID != id {
				c.leader.Store(int32(nl.LeaderID)) // may be -1: falls back to probing
			} else {
				c.leader.Store(-1)
			}
		case errors.Is(rerr, ErrStopped):
			c.leader.Store(-1) // that node is gone; probe the others
		default:
			return "", false, fmt.Errorf("raft: client read: %w", rerr)
		}
		time.Sleep(c.nextBackoff(attempt))
	}
}

// readTarget picks the node to send a coordinated read to: the sticky
// leader hint when one is known, else a scan for a node that believes it
// is leader, else round-robin probing.
func (c *Client) readTarget(probe *int) int {
	if id := int(c.leader.Load()); id >= 0 && id < len(c.nodes) {
		return id
	}
	for i, nd := range c.nodes {
		if nd.Status().State == Leader {
			c.leader.Store(int32(i))
			return i
		}
	}
	id := *probe % len(c.nodes)
	*probe++
	return id
}

// readStale serves an uncoordinated read from the next node in rotation,
// skipping stopped nodes.
func (c *Client) readStale(ctx context.Context, key string) (string, bool, error) {
	for tries := 0; tries < len(c.nodes); tries++ {
		id := int(c.rr.Add(1)-1) % len(c.nodes)
		if _, err := c.nodes[id].ReadIndexMode(ctx, ReadStale); err != nil {
			if errors.Is(err, ErrStopped) {
				continue
			}
			return "", false, fmt.Errorf("raft: client read: %w", err)
		}
		return c.get(id, key)
	}
	return "", false, errors.New("raft: client read: no live nodes")
}

// get reads key from node id's state machine.
func (c *Client) get(id int, key string) (string, bool, error) {
	g, ok := c.nodes[id].StateMachine().(KVGetter)
	if !ok {
		return "", false, fmt.Errorf("raft: client read: node %d state machine is not a KVGetter", id)
	}
	v, found := g.Get(key)
	return v, found, nil
}

// waitApplied decides a write whose accepting term moved before node id
// applied it: true once node id's lastApplied covers index, false when
// the node's log no longer reaches index because a new leader truncated
// it, or the node stopped (→ the caller resubmits).
//
// The happy path never comes here: Node.propose parks the write once,
// on the applied notifier, on the caller's own context, from the
// proposal to the apply — no timer, no accept wake, and no Status call
// (a round-trip through the main loop, which would stall behind the next
// batch's group-commit fsync). The only thing that can keep the apply
// from reaching index — a truncation — requires the node to adopt a
// higher term first, which wakes that wait too (applied.go, DESIGN
// §3.7). Only then does the write fall back to this bounded polling,
// where Status decides the races the notifier cannot see: a truncation,
// or a node that went down. Reaching index carries the caveat
// Status.LastApplied always did: it does not prove OUR entry survived
// at that index (see AwaitApplied).
func (c *Client) waitApplied(ctx context.Context, id, index int) (bool, error) {
	nd := c.nodes[id]
	for {
		if cerr := ctx.Err(); cerr != nil {
			return false, fmt.Errorf("raft: client: %w", cerr)
		}
		st := nd.Status()
		switch {
		case st.LastApplied >= index:
			return true, nil
		case st.LogLength < index:
			// Truncated by a new leader: the entry is gone.
			return false, nil
		case st.State != Leader && st.Term == 0:
			// Stopped node (zero status); treat as lost.
			return false, nil
		}
		// Still in the log, unapplied. The timeout bounds how long a
		// truncation (which applies nothing at our index) can stall us.
		// Whatever ended the wait, the next Status call decides.
		wctx, cancel := context.WithTimeout(ctx, 10*c.backoff)
		_, _ = nd.AwaitApplied(wctx, index)
		cancel()
	}
}
