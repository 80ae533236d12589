package msgnet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/transport"
)

// endpointCase is one Endpoint implementation under the contract test:
// ep receives what send delivers, and kill crashes or closes it.
type endpointCase struct {
	name string
	ep   msgnet.Endpoint
	send func(payload any) error
	kill func()
	dead error // what a dead endpoint's TryRecv and Recv wrap
}

func endpointCases(t *testing.T) []endpointCase {
	t.Helper()
	ctx := ctxT(t)

	simNW := netsim.New(2, netsim.WithFIFO())

	trs, err := transport.NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	})

	muxNW := netsim.New(2, netsim.WithFIFO())
	sender := msgnet.NewMux(ctx, muxNW.Node(0)).Channel("c")
	sub := msgnet.NewMux(ctx, muxNW.Node(1)).Channel("c")

	muxTrs, err := transport.NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range muxTrs {
			_ = tr.Close()
		}
	})
	trSender := msgnet.NewMux(ctx, muxTrs[0]).Channel("c")
	trSub := msgnet.NewMux(ctx, muxTrs[1]).Channel("c")

	return []endpointCase{
		{"netsim", simNW.Node(1), func(p any) error { return simNW.Node(0).Send(1, p) },
			func() { simNW.Crash(1) }, msgnet.ErrCrashed},
		{"transport", trs[1], func(p any) error { return trs[0].Send(1, p) },
			func() { _ = trs[1].Close() }, msgnet.ErrClosed},
		{"mux", sub, func(p any) error { return sender.Send(1, p) },
			func() { muxNW.Crash(1) }, msgnet.ErrCrashed},
		{"mux over transport", trSub, func(p any) error { return trSender.Send(1, p) },
			func() { _ = muxTrs[1].Close() }, msgnet.ErrClosed},
	}
}

// awaitToken waits for one Ready token; delivery is asynchronous on the
// transport.
func awaitToken(t *testing.T, ep msgnet.Endpoint) {
	t.Helper()
	select {
	case <-ep.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("no Ready token")
	}
}

// TestEndpointReadyTryRecvContract: on every implementation the
// blocking Recv, Ready and TryRecv describe the same queue — nothing
// pending is (false, nil), a delivery yields a token and then the
// messages in order, tokens collapse, a cancelled Recv takes nothing,
// and death wakes Ready and surfaces the same error from TryRecv and
// Recv from then on.
func TestEndpointReadyTryRecvContract(t *testing.T) {
	for _, tc := range endpointCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxT(t)
			ep := tc.ep
			if ep.Ready() != ep.Ready() {
				t.Fatal("Ready returned two different channels")
			}
			if m, ok, err := ep.TryRecv(); ok || err != nil {
				t.Fatalf("idle TryRecv = %v %v %v, want nothing pending", m, ok, err)
			}

			// A burst arrives as at most one token per message, in order.
			// Payloads are raft messages: the transport carries only the
			// codec's closed set.
			const burst = 3
			for i := 0; i < burst; i++ {
				if err := tc.send(raft.RequestVote{Term: i}); err != nil {
					t.Fatal(err)
				}
			}
			for got := 0; got < burst; {
				awaitToken(t, ep)
				for {
					m, ok, err := ep.TryRecv()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					if m.Payload != (raft.RequestVote{Term: got}) || m.From != 0 || m.To != 1 {
						t.Fatalf("message %d = %+v", got, m)
					}
					got++
				}
			}

			// Recv is the same queue: it takes what TryRecv would have,
			// and a dead context takes nothing.
			kept := raft.RequestVoteReply{Term: 9}
			if err := tc.send(kept); err != nil {
				t.Fatal(err)
			}
			dead, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := ep.Recv(dead); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Recv: %v", err)
			}
			if m, err := ep.Recv(ctx); err != nil || m.Payload != kept {
				t.Fatalf("Recv = %+v %v", m, err)
			}
			if _, ok, err := ep.TryRecv(); ok || err != nil {
				t.Fatalf("TryRecv after Recv drained: %v %v", ok, err)
			}

			// Death wakes Ready; a stale token from the burst may come
			// first, so wait until TryRecv reports the error.
			tc.kill()
			for {
				awaitToken(t, ep)
				_, ok, err := ep.TryRecv()
				if ok {
					t.Fatal("message out of a dead, drained endpoint")
				}
				if err != nil {
					if !errors.Is(err, tc.dead) {
						t.Fatalf("TryRecv error %v, want %v", err, tc.dead)
					}
					break
				}
			}
			if _, _, err := ep.TryRecv(); !errors.Is(err, tc.dead) {
				t.Fatalf("error not sticky: %v", err)
			}
			if _, err := ep.Recv(ctx); !errors.Is(err, tc.dead) {
				t.Fatalf("Recv on dead endpoint: %v", err)
			}
		})
	}
}

// TestQueueFIFOAndReusesItsArray: elements leave in arrival order, and
// steady push/pop traffic allocates nothing once the array has grown
// (consuming with q = q[1:] grew a fresh one on every wrap).
func TestQueueFIFOAndReusesItsArray(t *testing.T) {
	var q msgnet.Queue[*int]
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from the zero queue")
	}
	vals := []*int{new(int), new(int), new(int)}
	burst := func() {
		for i, v := range vals {
			*v = i
			q.Push(v)
		}
		for i := range vals {
			if v, ok := q.Pop(); !ok || *v != i {
				t.Fatalf("pop %d = %v %v", i, v, ok)
			}
		}
	}
	burst()
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Fatalf("steady-state burst: %v allocs", n)
	}
}
