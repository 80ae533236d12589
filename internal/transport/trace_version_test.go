package transport

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/raft"
	"ooc/internal/rtrace"
	"ooc/internal/sim"
)

// v1Peer is a peer built before the trace field: it emits only frame-V1
// messages, its trace wrappers never reaching the wire, while it decodes
// the V2 frames its peers send it like any other.
type v1Peer struct{ *Transport }

func (p v1Peer) Send(to int, payload any) error {
	_, inner := msgnet.TraceOf(payload)
	return p.Transport.Send(to, inner)
}

func (p v1Peer) Broadcast(payload any) error {
	_, inner := msgnet.TraceOf(payload)
	return p.Transport.Broadcast(inner)
}

// runTracedCluster drives traced writes through a 3-node cluster over
// eps and returns once every node has applied them. Every committed write
// must land on every node's state machine regardless of what frame
// version each peer speaks.
func runTracedCluster(t *testing.T, eps []msgnet.Endpoint, tracer *rtrace.Tracer) {
	t.Helper()
	n := len(eps)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := sim.NewRNG(11)
	sms := make([]*raft.KVStore, n)
	nodes := make([]*raft.Node, n)
	for id := 0; id < n; id++ {
		sms[id] = &raft.KVStore{}
		node, err := raft.NewNode(raft.Config{
			ID:                id,
			Endpoint:          eps[id],
			RNG:               rng.Fork(uint64(id)),
			ElectionTimeout:   60 * time.Millisecond,
			HeartbeatInterval: 12 * time.Millisecond,
			StateMachine:      sms[id],
			Tracer:            tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		node.Start(ctx)
	}
	client, err := raft.NewClient(nodes, raft.WithClientTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 8
	var last int
	for i := 0; i < writes; i++ {
		idx, err := client.SubmitWait(ctx, raft.KVCommand{Op: "set", Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i)})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		last = idx
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
			for id, sm := range sms {
				t.Logf("node %d applied=%d want>=%d", id, sm.AppliedIndex(), last)
			}
			t.Fatal("replication did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := sms[0].Snapshot()
	for id := 1; id < n; id++ {
		if got := sms[id].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d state diverged:\n got %v\nwant %v", id, got, want)
		}
	}
}

// assertTracedSpans checks that the traced writes produced completed
// client spans with phase attribution — i.e. tracing survived whatever
// wire mix the cluster ran.
func assertTracedSpans(t *testing.T, tracer *rtrace.Tracer, minSpans int) {
	t.Helper()
	good := 0
	for _, s := range tracer.Spans() {
		if s.Remote || s.Err || s.Op != "set" {
			continue
		}
		if len(s.Phases) == 0 {
			continue
		}
		good++
	}
	if good < minSpans {
		t.Fatalf("only %d clean attributed spans, want >= %d (spans: %d total)",
			good, minSpans, len(tracer.Spans()))
	}
}

// TestMixedFrameVersionCluster is the compatibility regression for the
// frame V2 (trace ID) bump: a peer that emits only frame V1 — a binary
// built before tracing existed — joins two V2 peers, tracing enabled at
// sample 1.0. Writes must commit on every node (the V1 peer's trace IDs
// never reach the wire), and the V2 side must still assemble spans.
func TestMixedFrameVersionCluster(t *testing.T) {
	trs := localCluster(t, 3)
	eps := []msgnet.Endpoint{trs[0], trs[1], v1Peer{trs[2]}}
	tracer := rtrace.New(rtrace.Options{Sample: 1})
	runTracedCluster(t, eps, tracer)
	assertTracedSpans(t, tracer, 1)
}
