// A replicated key-value store on full Raft over real TCP loopback
// sockets: elect, replicate, crash the leader, fail over, repair a
// laggard's log. This is the paper's Section 4.3 substrate doing the job
// it was designed for.
//
//	go run ./examples/raftkv
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ooc/internal/raft"
	"ooc/internal/sim"
	"ooc/internal/transport"
)

func main() {
	const n = 3
	eps, err := transport.NewLocalCluster(n)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	rng := sim.NewRNG(99)
	kvs := make([]*raft.KVStore, n)
	nodes := make([]*raft.Node, n)
	won := make(chan int) // a node's id, each time it wins an election
	for id := 0; id < n; id++ {
		kvs[id] = &raft.KVStore{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          eps[id],
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   100 * time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
			StateMachine:      kvs[id],
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[id] = node
		// Subscribed before Start, so no win goes unseen.
		go forwardWins(ctx, id, node.Subscribe(raft.EventBecameLeader), won)
		node.Start(ctx)
		fmt.Printf("node %d on %s\n", id, eps[id].Addr())
	}

	leader := waitLeader(ctx, nodes, won, nil)
	fmt.Printf("elected leader: node %d\n", leader)

	var last int
	for _, kv := range []raft.KVCommand{
		{Op: "set", Key: "lang", Value: "go"},
		{Op: "set", Key: "paper", Value: "ooc"},
		{Op: "set", Key: "venue", Value: "podc17"},
	} {
		idx, err := nodes[leader].Propose(ctx, kv)
		if err != nil {
			log.Fatalf("propose: %v", err)
		}
		last = idx
	}
	waitApplied(ctx, nodes, last, nil)
	fmt.Printf("all nodes applied %d entries; node 2 sees %v\n", last, kvs[2].Snapshot())

	fmt.Printf("crashing leader %d...\n", leader)
	_ = eps[leader].Close()
	dead := map[int]bool{leader: true}
	leader2 := waitLeader(ctx, nodes, won, dead)
	fmt.Printf("new leader: node %d (term %d)\n", leader2, nodes[leader2].Status().Term)

	idx, err := nodes[leader2].Propose(ctx, raft.KVCommand{Op: "set", Key: "failover", Value: "survived"})
	if err != nil {
		log.Fatalf("post-failover propose: %v", err)
	}
	waitApplied(ctx, nodes, idx, dead)
	v, _ := kvs[leader2].Get("failover")
	fmt.Printf("post-failover write visible everywhere: failover=%s\n", v)
	fmt.Println("ok")
}

// forwardWins passes on node id's EventBecameLeader stream.
func forwardWins(ctx context.Context, id int, sub *raft.Subscription, won chan<- int) {
	for {
		if _, err := sub.Next(ctx); err != nil {
			return
		}
		select {
		case won <- id:
		case <-ctx.Done():
			return
		}
	}
}

// waitLeader returns a live node that leads by its own status. It checks
// the level, then sleeps until the next win anywhere; a win from before
// the check only costs one more check.
func waitLeader(ctx context.Context, nodes []*raft.Node, won <-chan int, dead map[int]bool) int {
	for {
		for id, node := range nodes {
			if !dead[id] && node.Status().State == raft.Leader {
				return id
			}
		}
		select {
		case <-won:
		case <-ctx.Done():
			log.Fatal("no leader elected")
		}
	}
}

// waitApplied returns once every live node has applied through index.
func waitApplied(ctx context.Context, nodes []*raft.Node, index int, dead map[int]bool) {
	for id, node := range nodes {
		if dead[id] {
			continue
		}
		if _, err := node.AwaitApplied(ctx, index); err != nil {
			log.Fatalf("node %d applying through %d: %v", id, index, err)
		}
	}
}
