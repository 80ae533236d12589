package raft

import (
	"context"
	"testing"
	"time"

	"ooc/internal/netsim"
	"ooc/internal/sim"
)

func TestClientRequiresNodes(t *testing.T) {
	if _, err := NewClient(nil); err == nil {
		t.Fatal("empty client accepted")
	}
}

func TestClientSubmitFollowsRedirects(t *testing.T) {
	c := newCluster(t, 3, 61)
	client, err := NewClient(c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	idx, node, err := client.Submit(ctx, KVCommand{Op: "set", Key: "via", Value: "client"})
	if err != nil {
		t.Fatal(err)
	}
	if idx < 1 {
		t.Fatalf("index = %d", idx)
	}
	if st := c.nodes[node].Status(); st.State != Leader && st.LeaderID == -1 {
		// Leadership may have moved since; only sanity-check the id.
		t.Logf("accepting node %d no longer leader: %v", node, st)
	}
	c.waitApplied(idx, 0, 1, 2)
	for id, kv := range c.kvs {
		if v, ok := kv.Get("via"); !ok || v != "client" {
			t.Fatalf("node %d: via=%q %v", id, v, ok)
		}
	}
}

func TestClientSubmitWaitCommits(t *testing.T) {
	c := newCluster(t, 3, 67)
	client, err := NewClient(c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		key := string(rune('a' + i))
		idx, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: key, Value: key})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		// Committed means at least the accepting node has applied it;
		// poll the whole cluster for convergence.
		c.waitApplied(idx, 0, 1, 2)
	}
	for id, kv := range c.kvs {
		if kv.Len() != 5 {
			t.Fatalf("node %d has %d keys", id, kv.Len())
		}
	}
}

func TestClientSurvivesLeaderCrash(t *testing.T) {
	c := newCluster(t, 5, 71)
	client, err := NewClient(c.nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "before", Value: "x"}); err != nil {
		t.Fatal(err)
	}
	leader := c.waitLeader()
	c.nw.Crash(leader)

	idx, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "after", Value: "y"})
	if err != nil {
		t.Fatalf("submit after leader crash: %v", err)
	}
	var survivors []int
	for id := range c.nodes {
		if !c.nw.Crashed(id) {
			survivors = append(survivors, id)
		}
	}
	c.waitApplied(idx, survivors...)
	for _, id := range survivors {
		if v, ok := c.kvs[id].Get("after"); !ok || v != "y" {
			t.Fatalf("survivor %d: after=%q %v", id, v, ok)
		}
	}
}

func TestClientContextCancelled(t *testing.T) {
	nw := netsim.New(1)
	node, err := NewNode(Config{ID: 0, Endpoint: nw.Node(0), RNG: sim.NewRNG(1),
		ElectionTimeout: time.Hour}) // never elects: Submit must spin until ctx ends
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	node.Start(runCtx)
	client, err := NewClient([]*Node{node})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := client.Submit(ctx, "x"); err == nil {
		t.Fatal("submit succeeded without a leader")
	}
}

func TestRaftReplicationUnderLossyNetwork(t *testing.T) {
	// 10% message loss: heartbeat-driven retries must still converge.
	const n = 3
	nw := netsim.New(n, netsim.WithSeed(73), netsim.WithDropRate(0.10))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(73)
	kvs := make([]*KVStore, n)
	nodes := make([]*Node, n)
	for id := 0; id < n; id++ {
		kvs[id] = &KVStore{}
		node, err := NewNode(Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
			StateMachine:      kvs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	client, err := NewClient(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var lastIdx int
	for i := 0; i < 10; i++ {
		idx, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "lossy", Value: string(rune('0' + i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		lastIdx = idx
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, kv := range kvs {
			if kv.AppliedIndex() < lastIdx {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lossy replication did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for id, kv := range kvs {
		if v, _ := kv.Get("lossy"); v != "9" {
			t.Fatalf("node %d: lossy=%q", id, v)
		}
	}
}

func TestRaftReplicationUnderDuplication(t *testing.T) {
	// Full duplication: every message delivered twice. Idempotent append
	// handling must keep logs and state machines correct.
	const n = 3
	nw := netsim.New(n, netsim.WithSeed(79), netsim.WithDupRate(1))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(79)
	kvs := make([]*KVStore, n)
	nodes := make([]*Node, n)
	for id := 0; id < n; id++ {
		kvs[id] = &KVStore{}
		node, err := NewNode(Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
			StateMachine:      kvs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	client, err := NewClient(nodes)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := client.SubmitWait(ctx, KVCommand{Op: "set", Key: "dup", Value: "once"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, kv := range kvs {
			if kv.AppliedIndex() < idx {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replication under duplication did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for id, node := range nodes {
		st := node.Status()
		if st.LogLength != idx {
			t.Fatalf("node %d log length %d, want %d (duplicated appends?)", id, st.LogLength, idx)
		}
	}
}

func TestClientBackoffGrowsCappedAndJittered(t *testing.T) {
	c := &Client{backoff: clientBackoff, rng: sim.NewRNG(7)}
	// The pause after attempt k lies in [base*2^k/2, base*2^k), capped at
	// 32× the base.
	for attempt := 0; attempt < 12; attempt++ {
		exp := min(clientBackoff<<attempt, 32*clientBackoff)
		for i := 0; i < 50; i++ {
			d := c.nextBackoff(attempt)
			if d < exp/2 || d >= exp {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, exp/2, exp)
			}
		}
	}
	// Same seed, same sequence: deterministic under simulation.
	a := &Client{backoff: clientBackoff, rng: sim.NewRNG(42)}
	b := &Client{backoff: clientBackoff, rng: sim.NewRNG(42)}
	for attempt := 0; attempt < 8; attempt++ {
		if da, db := a.nextBackoff(attempt), b.nextBackoff(attempt); da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
	}
}
