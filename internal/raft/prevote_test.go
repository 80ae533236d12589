package raft

import (
	"context"
	"testing"
	"time"

	"ooc/internal/netsim"
	"ooc/internal/sim"
)

// preVoteCluster builds a cluster with the PreVote extension enabled.
func preVoteCluster(t *testing.T, n int, seed uint64) (*netsim.Network, []*Node, []*KVStore, context.CancelFunc) {
	t.Helper()
	nw := netsim.New(n, netsim.WithSeed(seed))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rng := sim.NewRNG(seed)
	nodes := make([]*Node, n)
	kvs := make([]*KVStore, n)
	for id := 0; id < n; id++ {
		kvs[id] = &KVStore{}
		node, err := NewNode(Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
			StateMachine:      kvs[id],
			PreVote:           true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	return nw, nodes, kvs, cancel
}

func waitForLeader(t *testing.T, nodes []*Node, nw *netsim.Network) int {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for id, node := range nodes {
			if nw.Crashed(id) {
				continue
			}
			if node.Status().State == Leader {
				return id
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no leader with PreVote enabled")
	return -1
}

func TestPreVoteClusterElectsAndReplicates(t *testing.T) {
	nw, nodes, kvs, _ := preVoteCluster(t, 3, 51)
	leader := waitForLeader(t, nodes, nw)
	idx, err := nodes[leader].Propose(context.Background(), KVCommand{Op: "set", Key: "pv", Value: "on"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
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
			t.Fatal("replication incomplete")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPreVotePreventsTermInflation(t *testing.T) {
	// A processor isolated from the majority must not grow its term:
	// its pre-vote probes reach nobody, so it never campaigns for real.
	nw, nodes, _, _ := preVoteCluster(t, 5, 53)
	leader := waitForLeader(t, nodes, nw)
	baseTerm := nodes[leader].Status().Term

	victim := (leader + 1) % 5
	rest := []int{}
	for id := 0; id < 5; id++ {
		if id != victim {
			rest = append(rest, id)
		}
	}
	nw.Partition(rest)
	// Let the victim time out many times.
	time.Sleep(12 * testElection)
	if got := nodes[victim].Status().Term; got > baseTerm {
		t.Fatalf("isolated node inflated its term: %d > %d", got, baseTerm)
	}

	// Healing must not depose the leader: the cluster term is unchanged.
	nw.Heal()
	time.Sleep(6 * testElection)
	leaderTerm := -1
	for id, node := range nodes {
		st := node.Status()
		if st.State == Leader {
			leaderTerm = st.Term
			_ = id
		}
	}
	if leaderTerm != baseTerm {
		t.Fatalf("leadership disrupted after heal: term %d, want %d", leaderTerm, baseTerm)
	}
}

func TestPreVoteDeniedWhileLeaderAlive(t *testing.T) {
	// Followers with a live leader veto pre-vote probes. The prober is a
	// bare endpoint (node 3 runs no protocol), so it owns its inbox.
	const prober = 3
	nw := netsim.New(4, netsim.WithSeed(57))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rng := sim.NewRNG(57)
	nodes := make([]*Node, 3)
	for id := 0; id < 3; id++ {
		node, err := NewNode(Config{
			ID:                id,
			Endpoint:          nw.Node(id),
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   testElection,
			HeartbeatInterval: testHeartbeat,
			PreVote:           true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	leader := waitForLeader(t, nodes, nw)
	follower := (leader + 1) % 3

	// Wait until the follower has heard from the leader, then probe it.
	time.Sleep(4 * testHeartbeat)
	term := nodes[follower].Status().Term
	if err := nw.Node(prober).Send(follower, RequestVote{Term: term + 1, CandidateID: prober, LastLogIndex: 99, LastLogTerm: 99, Pre: true}); err != nil {
		t.Fatal(err)
	}
	recvCtx, recvCancel := context.WithTimeout(ctx, 10*time.Second)
	defer recvCancel()
	for {
		m, err := nw.Node(prober).Recv(recvCtx)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		if r, ok := m.Payload.(RequestVoteReply); ok {
			if r.VoteGranted {
				t.Fatal("pre-vote granted while the leader is alive")
			}
			return
		}
	}
}

func TestPreVoteSingleNode(t *testing.T) {
	nw, nodes, _, _ := preVoteCluster(t, 1, 59)
	waitForLeader(t, nodes, nw)
}

func TestPreVoteDeniedByTheLeader(t *testing.T) {
	// The leader counts its own reign as a live leader: long after any
	// deadline it drew as a follower, it still refuses a probe. (A grant
	// plus the prober's own vote would be a quorum of three.)
	const prober = 3
	nw := netsim.New(4, netsim.WithSeed(61))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rng := sim.NewRNG(61)
	nodes := make([]*Node, 3)
	for id := range nodes {
		node, err := NewNode(Config{ID: id, Endpoint: nw.Node(id), RNG: rng.Fork(uint64(id)),
			ElectionTimeout: testElection, HeartbeatInterval: testHeartbeat, PreVote: true})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	leader := waitForLeader(t, nodes, nw)
	time.Sleep(3 * testElection)
	st := nodes[leader].Status()
	if st.State != Leader {
		t.Fatalf("leadership moved without a fault: %v", st)
	}
	if err := nw.Node(prober).Send(leader, RequestVote{Term: st.Term + 1, CandidateID: prober, LastLogIndex: 99, LastLogTerm: 99, Pre: true}); err != nil {
		t.Fatal(err)
	}
	recvCtx, recvCancel := context.WithTimeout(ctx, 10*time.Second)
	defer recvCancel()
	for {
		m, err := nw.Node(prober).Recv(recvCtx)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		if r, ok := m.Payload.(RequestVoteReply); ok {
			if r.VoteGranted {
				t.Fatalf("the leader granted a pre-vote for term %d: %v", st.Term+1, r)
			}
			return
		}
	}
}
