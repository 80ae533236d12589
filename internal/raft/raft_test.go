package raft

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ooc/internal/core"
	"ooc/internal/netsim"
	"ooc/internal/sim"
)

const (
	testElection  = 40 * time.Millisecond
	testHeartbeat = 8 * time.Millisecond
)

// cluster is a test harness: n Raft nodes over a simulated network.
type cluster struct {
	t      testing.TB
	nw     *netsim.Network
	nodes  []*Node
	kvs    []*KVStore
	subs   []*Subscription
	cancel context.CancelFunc
	ctx    context.Context
}

func newCluster(t testing.TB, n int, seed uint64, opts ...func(*Config)) *cluster {
	t.Helper()
	nw := netsim.New(n, netsim.WithSeed(seed))
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{t: t, nw: nw, cancel: cancel, ctx: ctx}
	t.Cleanup(cancel)
	rng := sim.NewRNG(seed)
	for id := 0; id < n; id++ {
		kv := &KVStore{}
		cfg := Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
			StateMachine:      kv,
		}
		for _, opt := range opts {
			opt(&cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
		c.kvs = append(c.kvs, kv)
		c.subs = append(c.subs, node.Subscribe())
	}
	for _, node := range c.nodes {
		node.Start(ctx)
	}
	return c
}

// waitLeader blocks until some non-crashed node reports itself leader and
// returns its id.
func (c *cluster) waitLeader() int {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for id, node := range c.nodes {
			if c.nw.Crashed(id) {
				continue
			}
			if st := node.Status(); st.State == Leader {
				return id
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("no leader elected within deadline")
	return -1
}

// waitApplied blocks until every node in ids has applied through index.
func (c *cluster) waitApplied(index int, ids ...int) {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, id := range ids {
			if c.kvs[id].AppliedIndex() < index {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range ids {
		c.t.Logf("node %d applied %d, status %v", id, c.kvs[id].AppliedIndex(), c.nodes[id].Status())
	}
	c.t.Fatalf("nodes did not apply index %d within deadline", index)
}

// propose proposes through the current leader, retrying across leadership
// changes.
func (c *cluster) propose(cmd any) int {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := c.waitLeader()
		idx, err := c.nodes[leader].Propose(c.ctx, cmd)
		if err == nil {
			return idx
		}
		var nl ErrNotLeader
		if !errors.As(err, &nl) {
			c.t.Fatalf("propose: %v", err)
		}
	}
	c.t.Fatal("could not propose within deadline")
	return 0
}

// checkElectionSafety drains all event subscriptions and asserts at most
// one leader per term.
func (c *cluster) checkElectionSafety() {
	c.t.Helper()
	leaders := make(map[int]int) // term -> node
	for id, sub := range c.subs {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			ev, err := sub.Next(ctx)
			cancel()
			if err != nil {
				break
			}
			if ev.Kind == EventBecameLeader {
				if prev, ok := leaders[ev.Term]; ok && prev != id {
					c.t.Fatalf("election safety violated: term %d has leaders %d and %d", ev.Term, prev, id)
				}
				leaders[ev.Term] = id
			}
		}
	}
}

func TestSingleNodeBecomesLeaderAndCommits(t *testing.T) {
	c := newCluster(t, 1, 1)
	leader := c.waitLeader()
	if leader != 0 {
		t.Fatalf("leader = %d", leader)
	}
	idx := c.propose(KVCommand{Op: "set", Key: "x", Value: "1"})
	c.waitApplied(idx, 0)
	if v, ok := c.kvs[0].Get("x"); !ok || v != "1" {
		t.Fatalf("Get(x) = %q %v", v, ok)
	}
}

func TestLeaderElection(t *testing.T) {
	for _, n := range []int{3, 5} {
		c := newCluster(t, n, uint64(n))
		leader := c.waitLeader()
		st := c.nodes[leader].Status()
		if st.State != Leader {
			t.Fatalf("n=%d: status flapped: %v", n, st)
		}
		// Followers learn the leader.
		deadline := time.Now().Add(10 * time.Second)
		for id := range c.nodes {
			for time.Now().Before(deadline) {
				if s := c.nodes[id].Status(); s.LeaderID == leader && s.Term >= st.Term {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		c.checkElectionSafety()
		c.cancel()
	}
}

func TestReplicationToAllNodes(t *testing.T) {
	c := newCluster(t, 3, 7)
	var lastIdx int
	for i, kv := range []KVCommand{
		{Op: "set", Key: "a", Value: "1"},
		{Op: "set", Key: "b", Value: "2"},
		{Op: "set", Key: "a", Value: "3"},
		{Op: "delete", Key: "b"},
	} {
		lastIdx = c.propose(kv)
		_ = i
	}
	c.waitApplied(lastIdx, 0, 1, 2)
	for id, kv := range c.kvs {
		if v, ok := kv.Get("a"); !ok || v != "3" {
			t.Fatalf("node %d: a=%q %v", id, v, ok)
		}
		if _, ok := kv.Get("b"); ok {
			t.Fatalf("node %d: b still present", id)
		}
	}
	c.checkElectionSafety()
}

func TestProposeOnFollowerRedirects(t *testing.T) {
	c := newCluster(t, 3, 11)
	leader := c.waitLeader()
	// Give followers a moment to learn the leader via heartbeat.
	idx := c.propose(KVCommand{Op: "set", Key: "k", Value: "v"})
	c.waitApplied(idx, 0, 1, 2)
	for id, node := range c.nodes {
		if id == leader {
			continue
		}
		_, err := node.Propose(c.ctx, KVCommand{Op: "set", Key: "nope", Value: "x"})
		var nl ErrNotLeader
		if err == nil {
			// This follower may have since become leader; acceptable.
			continue
		}
		if !errors.As(err, &nl) {
			t.Fatalf("node %d: err = %v, want ErrNotLeader", id, err)
		}
		if nl.Error() == "" {
			t.Fatal("empty error string")
		}
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	c := newCluster(t, 5, 13)
	idx := c.propose(KVCommand{Op: "set", Key: "stable", Value: "yes"})
	c.waitApplied(idx, 0, 1, 2, 3, 4)

	leader1 := c.waitLeader()
	c.nw.Crash(leader1)

	// A new leader emerges among the survivors and progress continues.
	deadline := time.Now().Add(15 * time.Second)
	var leader2 = -1
	for time.Now().Before(deadline) && leader2 == -1 {
		for id, node := range c.nodes {
			if id == leader1 || c.nw.Crashed(id) {
				continue
			}
			if node.Status().State == Leader {
				leader2 = id
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if leader2 == -1 {
		t.Fatal("no failover leader")
	}
	idx2, err := c.nodes[leader2].Propose(c.ctx, KVCommand{Op: "set", Key: "after", Value: "crash"})
	if err != nil {
		// Raced with a concurrent election; retry via helper.
		idx2 = c.propose(KVCommand{Op: "set", Key: "after", Value: "crash"})
	}
	survivors := []int{}
	for id := range c.nodes {
		if !c.nw.Crashed(id) {
			survivors = append(survivors, id)
		}
	}
	c.waitApplied(idx2, survivors...)
	for _, id := range survivors {
		if v, ok := c.kvs[id].Get("stable"); !ok || v != "yes" {
			t.Fatalf("node %d lost committed entry: stable=%q %v", id, v, ok)
		}
		if v, ok := c.kvs[id].Get("after"); !ok || v != "crash" {
			t.Fatalf("node %d missing post-crash entry", id)
		}
	}
	c.checkElectionSafety()
}

func TestPartitionMinorityLeaderCannotCommit(t *testing.T) {
	c := newCluster(t, 5, 17)
	leader := c.waitLeader()
	idx := c.propose(KVCommand{Op: "set", Key: "pre", Value: "1"})
	c.waitApplied(idx, 0, 1, 2, 3, 4)

	// Cut the leader (plus one friend) off from the majority.
	friend := (leader + 1) % 5
	minority := []int{leader, friend}
	var majority []int
	for id := 0; id < 5; id++ {
		if id != leader && id != friend {
			majority = append(majority, id)
		}
	}
	c.nw.Partition(minority, majority)

	// The minority leader can still append locally but must not commit.
	preCommit := c.nodes[leader].Status().CommitIndex
	if _, err := c.nodes[leader].Propose(c.ctx, KVCommand{Op: "set", Key: "ghost", Value: "x"}); err != nil {
		var nl ErrNotLeader
		if !errors.As(err, &nl) {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * testElection)
	if got := c.nodes[leader].Status().CommitIndex; got > preCommit {
		t.Fatalf("minority leader advanced commit index %d -> %d", preCommit, got)
	}

	// The majority elects its own leader and commits.
	deadline := time.Now().Add(15 * time.Second)
	var newLeader = -1
	for time.Now().Before(deadline) && newLeader == -1 {
		for _, id := range majority {
			if c.nodes[id].Status().State == Leader {
				newLeader = id
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if newLeader == -1 {
		t.Fatal("majority did not elect a leader")
	}
	idx2, err := c.nodes[newLeader].Propose(c.ctx, KVCommand{Op: "set", Key: "real", Value: "y"})
	if err != nil {
		t.Fatal(err)
	}
	c.waitApplied(idx2, majority...)

	// Heal: the deposed leader must discard its ghost entry and converge.
	c.nw.Heal()
	c.waitApplied(idx2, 0, 1, 2, 3, 4)
	deadline = time.Now().Add(15 * time.Second)
	converged := false
	for time.Now().Before(deadline) && !converged {
		converged = true
		for id := range c.nodes {
			if _, ok := c.kvs[id].Get("ghost"); ok {
				t.Fatalf("node %d applied uncommitted ghost entry", id)
			}
			if v, ok := c.kvs[id].Get("real"); !ok || v != "y" {
				converged = false
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !converged {
		t.Fatal("cluster did not converge after heal")
	}
	c.checkElectionSafety()
}

func TestLaggardLogRepair(t *testing.T) {
	// A node isolated while the cluster commits many entries must be
	// repaired via nextIndex backtracking after it reconnects — the
	// paper's "crash and wake up with an outdated log" path.
	c := newCluster(t, 3, 19)
	idx := c.propose(KVCommand{Op: "set", Key: "w0", Value: "v"})
	c.waitApplied(idx, 0, 1, 2)

	leader := c.waitLeader()
	isolated := (leader + 1) % 3
	rest := []int{}
	for id := 0; id < 3; id++ {
		if id != isolated {
			rest = append(rest, id)
		}
	}
	c.nw.Partition(rest)

	var lastIdx int
	for i := 0; i < 8; i++ {
		lastIdx = c.propose(KVCommand{Op: "set", Key: "bulk", Value: string(rune('a' + i))})
	}
	c.waitApplied(lastIdx, rest...)

	c.nw.Heal()
	c.waitApplied(lastIdx, isolated)
	if v, ok := c.kvs[isolated].Get("bulk"); !ok || v != "h" {
		t.Fatalf("repaired node bulk=%q %v", v, ok)
	}
}

// ---- single-decree consensus (Algorithm 7) ----

func runConsensusCluster(t *testing.T, n int, seed uint64, inputs []any, faults func(nw *netsim.Network, nodes []*ConsensusNode)) []any {
	t.Helper()
	nw := netsim.New(n, netsim.WithSeed(seed))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	rng := sim.NewRNG(seed)
	cns := make([]*ConsensusNode, n)
	for id := 0; id < n; id++ {
		cn, err := NewConsensusNode(Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
		}, inputs[id])
		if err != nil {
			t.Fatal(err)
		}
		cns[id] = cn
	}
	if faults != nil {
		faults(nw, cns)
	}
	results := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = cns[id].Run(ctx)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil && !nw.Crashed(id) {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	return results
}

func TestConsensusAgreementAndValidity(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		inputs := []any{"alpha", "beta", "gamma", "delta", "epsilon"}
		results := runConsensusCluster(t, 5, seed, inputs, nil)
		first := results[0]
		valid := false
		for _, in := range inputs {
			if in == first {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("seed %d: decided %v, not an input", seed, first)
		}
		for id, r := range results {
			if r != first {
				t.Fatalf("seed %d: agreement violated: node %d decided %v, node 0 decided %v", seed, id, r, first)
			}
		}
	}
}

func TestConsensusSurvivesLeaderCrash(t *testing.T) {
	inputs := []any{"a", "b", "c", "d", "e"}
	var nwRef *netsim.Network
	var cnsRef []*ConsensusNode
	results := runConsensusCluster(t, 5, 23, inputs, func(nw *netsim.Network, cns []*ConsensusNode) {
		nwRef, cnsRef = nw, cns
		// Crash whichever node first becomes leader, before it can finish
		// driving a decision everywhere (races allowed: the test only
		// requires eventual agreement among survivors).
		go func() {
			for {
				for id := range cns {
					if cns[id].Node().Status().State == Leader {
						nw.Crash(id)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	})
	_ = cnsRef
	var agreed any
	count := 0
	for id, r := range results {
		if nwRef.Crashed(id) {
			continue
		}
		if count == 0 {
			agreed = r
		} else if r != agreed {
			t.Fatalf("agreement violated among survivors: %v vs %v", r, agreed)
		}
		count++
	}
	if count < 4 {
		t.Fatalf("only %d survivors decided", count)
	}
}

// ---- the VAC view (Algorithms 10–11) ----

func TestVACConsensus(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		const n = 3
		nw := netsim.New(n, netsim.WithSeed(seed+100))
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		rng := sim.NewRNG(seed + 100)
		inputs := []string{"red", "green", "blue"}
		decisions := make([]core.Decision[string], n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			node, err := NewNode(Config{
				ID:                id,
				Endpoint:          nw.Node(id),
				RNG:               rng.Fork(uint64(id)),
				ElectionTimeout:   testElection,
				HeartbeatInterval: testHeartbeat,
				ManualCampaign:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(id int, node *Node) {
				defer wg.Done()
				decisions[id], errs[id] = RunVACConsensus[string](ctx, node, inputs[id])
			}(id, node)
		}
		wg.Wait()
		cancel()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("seed %d node %d: %v", seed, id, err)
			}
		}
		first := decisions[0].Value
		valid := false
		for _, in := range inputs {
			if in == first {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("seed %d: decided %q, not an input", seed, first)
		}
		for id, d := range decisions {
			if d.Value != first {
				t.Fatalf("seed %d: node %d decided %q, node 0 decided %q", seed, id, d.Value, first)
			}
		}
	}
}

func TestVACRequiresManualCampaign(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVAC[string](node); err == nil {
		t.Fatal("VAC accepted an auto-campaign node")
	}
}

// ---- fake clock determinism ----

func TestSingleNodeWithFakeClock(t *testing.T) {
	clock := sim.NewFakeClock()
	nw := netsim.New(1)
	sm := NewDecideOnce()
	node, err := NewNode(Config{
		ID:              0,
		Endpoint:        nw.Node(0),
		Clock:           clock,
		RNG:             sim.NewRNG(5),
		ElectionTimeout: time.Second,
		StateMachine:    sm,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := node.Subscribe()
	node.Start(ctx)

	// Nothing can happen until the fake clock moves.
	time.Sleep(20 * time.Millisecond)
	if st := node.Status(); st.State != Follower {
		t.Fatalf("state moved without clock: %v", st)
	}
	// Two base timeouts cover any randomized deadline in [T, 2T).
	for clock.Waiters() < 2 { // election + heartbeat timers armed
		time.Sleep(time.Millisecond)
	}
	clock.Advance(2 * time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := node.Status(); st.State == Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("single node did not elect itself: %v", node.Status())
		}
		clock.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	if _, err := node.Propose(ctx, DS{Value: "solo"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sm.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("single-node commit did not apply")
	}
	if v, _, _ := sm.Decided(); v != "solo" {
		t.Fatalf("decided %v", v)
	}
	// Drain at least one event to exercise the subscription path.
	evCtx, evCancel := context.WithTimeout(ctx, time.Second)
	defer evCancel()
	if _, err := sub.Next(evCtx); err != nil {
		t.Fatalf("no events observed: %v", err)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	nw := netsim.New(2)
	if _, err := NewNode(Config{Endpoint: nw.Node(0)}); err == nil {
		t.Fatal("missing RNG accepted")
	}
	if _, err := NewNode(Config{RNG: sim.NewRNG(1)}); err == nil {
		t.Fatal("missing endpoint accepted")
	}
	if _, err := NewNode(Config{Endpoint: nw.Node(0), RNG: sim.NewRNG(1), ID: 5}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := NewConsensusNode(Config{Endpoint: nw.Node(0), RNG: sim.NewRNG(1), StateMachine: &KVStore{}}, 1); err == nil {
		t.Fatal("ConsensusNode accepted a pre-set state machine")
	}
}

func TestProposeAfterStop(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1),
		ElectionTimeout: testElection})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	node.Start(ctx)
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := node.Propose(context.Background(), "x")
		if errors.Is(err, ErrStopped) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Propose after stop: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// Status on a stopped node must not hang.
	st := node.Status()
	if st.ID != 0 {
		t.Fatalf("status = %v", st)
	}
}

func TestEndpointCrashStopsNode(t *testing.T) {
	nw := netsim.New(2, netsim.WithSeed(3))
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(2),
		ElectionTimeout: testElection})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.Start(ctx)
	nw.Crash(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := node.Propose(context.Background(), "x"); errors.Is(err, ErrStopped) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node did not stop after endpoint crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
