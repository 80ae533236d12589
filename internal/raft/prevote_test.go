package raft

import (
	"context"
	"testing"
	"time"

	"ooc/internal/netsim"
)

// preVote is newCluster's option for the PreVote extension.
func preVote(cfg *Config) { cfg.PreVote = true }

func TestPreVoteClusterElectsAndReplicates(t *testing.T) {
	c := newCluster(t, 3, 51, preVote)
	leader := c.waitLeader()
	idx, err := c.nodes[leader].Propose(context.Background(), KVCommand{Op: "set", Key: "pv", Value: "on"})
	if err != nil {
		t.Fatal(err)
	}
	c.waitApplied(idx, 0, 1, 2)
}

func TestPreVotePreventsTermInflation(t *testing.T) {
	// A processor isolated from the majority must not grow its term:
	// its pre-vote probes reach nobody, so it never campaigns for real.
	c := newCluster(t, 5, 53, preVote)
	nw, nodes := c.nw, c.nodes
	leader := c.waitLeader()
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
	// Followers with a live leader veto pre-vote probes. The nodes sit on
	// a network of four whose node 3, the prober, is a bare endpoint: it
	// runs no protocol, so it owns its inbox.
	const prober = 3
	nw := netsim.New(4, netsim.WithSeed(57))
	c := newCluster(t, 3, 57, func(cfg *Config) { cfg.PreVote, cfg.Endpoint = true, nw.Node(cfg.ID) })
	ctx, nodes := c.ctx, c.nodes
	leader := c.waitLeader()
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
	newCluster(t, 1, 59, preVote).waitLeader()
}

func TestPreVoteDeniedByTheLeader(t *testing.T) {
	// The leader counts its own reign as a live leader: long after any
	// deadline it drew as a follower, it still refuses a probe. (A grant
	// plus the prober's own vote would be a quorum of three.)
	const prober = 3
	nw := netsim.New(4, netsim.WithSeed(61))
	c := newCluster(t, 3, 61, func(cfg *Config) { cfg.PreVote, cfg.Endpoint = true, nw.Node(cfg.ID) })
	ctx, nodes := c.ctx, c.nodes
	leader := c.waitLeader()
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
