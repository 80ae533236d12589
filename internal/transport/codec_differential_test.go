package transport

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/sim"
)

// recordingKV wraps a KVStore and records the applied command sequence,
// so two cluster runs can be compared commit by commit.
type recordingKV struct {
	raft.KVStore
	mu  sync.Mutex
	seq []string
}

func (s *recordingKV) Apply(index int, command any) {
	s.mu.Lock()
	s.seq = append(s.seq, fmt.Sprintf("%d:%v", index, command))
	s.mu.Unlock()
	s.KVStore.Apply(index, command)
}

func (s *recordingKV) commits() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.seq...)
}

// runSequence drives cmds through a Raft cluster over eps, one node per
// endpoint, and returns the commit sequence and final key space observed
// by every node.
func runSequence(t *testing.T, name string, eps []msgnet.Endpoint, seed uint64, cmds []raft.KVCommand) (seqs [][]string, snaps [][]string) {
	t.Helper()
	n := len(eps)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(seed)
	sms := make([]*recordingKV, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		sms[id] = &recordingKV{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          eps[id],
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   60 * time.Millisecond,
			HeartbeatInterval: 12 * time.Millisecond,
			StateMachine:      sms[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}

	propose := func(cmd raft.KVCommand) int {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("%s: proposal %v made no progress", name, cmd)
			}
			leader := -1
			for id, node := range nodes {
				if node.Status().State == raft.Leader {
					leader = id
				}
			}
			if leader == -1 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			idx, err := nodes[leader].Propose(ctx, cmd)
			if err == nil {
				return idx
			}
		}
	}

	var last int
	for _, cmd := range cmds {
		last = propose(cmd)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, sm := range sms {
			if sm.AppliedIndex() < last {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: replication did not complete", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, sm := range sms {
		seqs = append(seqs, sm.commits())
		snaps = append(snaps, sm.KVStore.Snapshot())
	}
	return seqs, snaps
}

// TestCodecDifferentialAgainstNetsim is the end-to-end differential
// check: the same command sequence driven through a TCP cluster, where
// every message is encoded and decoded by the binary codec, and through a
// netsim cluster, where payloads pass by reference and nothing is
// encoded, must produce identical post-apply state machines on every
// node, and identical commit sequences per seed. Leader no-ops make the
// absolute log indexes election-dependent, so the state-machine
// comparison is exact while the commit sequences are compared after
// filtering to KV commands only.
func TestCodecDifferentialAgainstNetsim(t *testing.T) {
	const n = 3
	cmds := []raft.KVCommand{
		{Op: "set", Key: "a", Value: "1"},
		{Op: "set", Key: "b", Value: "2"},
		{Op: "set", Key: "a", Value: "3"},
		{Op: "delete", Key: "b"},
		{Op: "set", Key: "c", Value: "4"},
	}
	for _, seed := range []uint64{1, 42} {
		nw := netsim.New(n, netsim.WithSeed(seed))
		t.Cleanup(nw.Close)
		tcp, ref := make([]msgnet.Endpoint, n), make([]msgnet.Endpoint, n)
		for i, tr := range localCluster(t, n) {
			tcp[i], ref[i] = tr, nw.Node(i)
		}
		binSeqs, binSnaps := runSequence(t, "tcp", tcp, seed, cmds)
		refSeqs, refSnaps := runSequence(t, "netsim", ref, seed, cmds)

		for id := range binSnaps {
			if !reflect.DeepEqual(binSnaps[id], refSnaps[id]) {
				t.Fatalf("seed %d node %d: tcp state %v != netsim state %v", seed, id, binSnaps[id], refSnaps[id])
			}
		}
		for id := range binSeqs {
			b, r := kvOnly(binSeqs[id]), kvOnly(refSeqs[id])
			if !reflect.DeepEqual(b, r) {
				t.Fatalf("seed %d node %d: tcp commits %v != netsim commits %v", seed, id, b, r)
			}
		}
	}
}

// kvOnly strips index prefixes and non-KV entries (leader no-ops) from a
// commit sequence, leaving the applied command order.
func kvOnly(seq []string) []string {
	out := make([]string, 0, len(seq))
	for _, s := range seq {
		for i := range s {
			if s[i] == ':' {
				s = s[i+1:]
				break
			}
		}
		if s == "noop" || s == "{}" {
			continue
		}
		out = append(out, s)
	}
	return out
}
