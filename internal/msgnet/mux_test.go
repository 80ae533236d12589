package msgnet_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ooc/internal/benor"
	"ooc/internal/core"
	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/netsim"
	"ooc/internal/raft"
	"ooc/internal/sim"
	"ooc/internal/trace"
	"ooc/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestMuxRoutesByChannel(t *testing.T) {
	nw := netsim.New(2, netsim.WithFIFO())
	ctx := ctxT(t)
	m0 := msgnet.NewMux(ctx, nw.Node(0))
	m1 := msgnet.NewMux(ctx, nw.Node(1))

	a0, b0 := m0.Channel("a"), m0.Channel("b")
	a1, b1 := m1.Channel("a"), m1.Channel("b")

	if err := a0.Send(1, "on-a"); err != nil {
		t.Fatal(err)
	}
	if err := b0.Send(1, "on-b"); err != nil {
		t.Fatal(err)
	}
	// Channel b receives only its own traffic, regardless of send order.
	mb, err := b1.Recv(ctx)
	if err != nil || mb.Payload != "on-b" {
		t.Fatalf("b recv: %v %v", mb, err)
	}
	ma, err := a1.Recv(ctx)
	if err != nil || ma.Payload != "on-a" {
		t.Fatalf("a recv: %v %v", ma, err)
	}
	if ma.From != 0 || ma.To != 1 {
		t.Fatalf("envelope mangled: %+v", ma)
	}
	_ = a1
	_ = b0
}

func TestMuxChannelIdentity(t *testing.T) {
	nw := netsim.New(1)
	m := msgnet.NewMux(ctxT(t), nw.Node(0))
	if m.Channel("x") != m.Channel("x") {
		t.Fatal("same name returned distinct endpoints")
	}
	if m.Channel("x") == m.Channel("y") {
		t.Fatal("distinct names returned the same endpoint")
	}
	if m.Channel("x").ID() != 0 || m.Channel("x").N() != 1 {
		t.Fatal("sub-endpoint identity wrong")
	}
}

func TestMuxBroadcast(t *testing.T) {
	const n = 3
	nw := netsim.New(n)
	ctx := ctxT(t)
	muxes := make([]*msgnet.Mux, n)
	for i := 0; i < n; i++ {
		muxes[i] = msgnet.NewMux(ctx, nw.Node(i))
	}
	if err := muxes[0].Channel("c").Broadcast("hello"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := muxes[i].Channel("c").Recv(ctx)
		if err != nil || m.Payload != "hello" {
			t.Fatalf("node %d: %v %v", i, m, err)
		}
	}
}

func TestMuxUnknownChannelDropped(t *testing.T) {
	nw := netsim.New(2)
	ctx := ctxT(t)
	m0 := msgnet.NewMux(ctx, nw.Node(0))
	m1 := msgnet.NewMux(ctx, nw.Node(1))
	if err := m0.Channel("ghost").Send(1, "x"); err != nil {
		t.Fatal(err)
	}
	// Channel "real" on the receiver must not see ghost traffic.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := m1.Channel("real").Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestMuxParentDeathFailsSubs(t *testing.T) {
	nw := netsim.New(2)
	ctx := ctxT(t)
	m := msgnet.NewMux(ctx, nw.Node(0))
	sub := m.Channel("c")
	nw.Crash(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err := sub.Recv(short)
		cancel()
		if errors.Is(err, msgnet.ErrCrashed) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sub endpoint did not observe parent death: %v", err)
		}
	}
}

func TestTwoConsensusInstancesOverOneNetwork(t *testing.T) {
	// The headline use: two independent Ben-Or instances sharing one
	// physical network via per-instance channels.
	const n, tFaults = 3, 1
	nw := netsim.New(n, netsim.WithSeed(5))
	ctx := ctxT(t)
	rng := sim.NewRNG(5)
	muxes := make([]*msgnet.Mux, n)
	for i := 0; i < n; i++ {
		muxes[i] = msgnet.NewMux(ctx, nw.Node(i))
	}
	inputsA := []int{0, 1, 1}
	inputsB := []int{1, 0, 0}
	decA := make([]core.Decision[int], n)
	decB := make([]core.Decision[int], n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d, err := benor.RunDecomposed(ctx, muxes[id].Channel("instA"), rng.Fork(uint64(id)), tFaults, inputsA[id],
				core.WithMaxRounds(2000))
			if err != nil {
				t.Errorf("A p%d: %v", id, err)
				return
			}
			decA[id] = d
		}(id)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d, err := benor.RunDecomposed(ctx, muxes[id].Channel("instB"), rng.Fork(uint64(id)+100), tFaults, inputsB[id],
				core.WithMaxRounds(2000))
			if err != nil {
				t.Errorf("B p%d: %v", id, err)
				return
			}
			decB[id] = d
		}(id)
	}
	wg.Wait()
	for id := 1; id < n; id++ {
		if decA[id].Value != decA[0].Value {
			t.Fatalf("instance A disagreement: %v", decA)
		}
		if decB[id].Value != decB[0].Value {
			t.Fatalf("instance B disagreement: %v", decB)
		}
	}
}

// TestMuxBacklogBounded models multi-shard boot skew gone permanent: a
// channel that is never created on the receiver must buffer at most the
// backlog cap, counting the overflow as drops, and hand exactly the
// buffered prefix over when the channel finally appears.
func TestMuxBacklogBounded(t *testing.T) {
	nw := netsim.New(2, netsim.WithFIFO())
	ctx := ctxT(t)
	reg := metrics.NewRegistry()
	m0 := msgnet.NewMux(ctx, nw.Node(0))
	m1 := msgnet.NewMux(ctx, nw.Node(1), msgnet.WithMuxMetrics(reg))

	const (
		limit = msgnet.DefaultBacklogLimit
		over  = 7
		sent  = limit + over
	)
	for i := 0; i < sent; i++ {
		if err := m0.Channel("late").Send(1, i); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the receiver has routed everything: the cap buffered,
	// the rest dropped.
	dropped := reg.Counter("mux_backlog_dropped_total")
	deadline := time.Now().Add(5 * time.Second)
	for dropped.Value() < over {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want %d", dropped.Value(), over)
		}
		time.Sleep(time.Millisecond)
	}
	sub := m1.Channel("late")
	for i := 0; i < limit; i++ {
		msg, err := sub.Recv(ctx)
		if err != nil || msg.Payload != i {
			t.Fatalf("recv %d: %v %v", i, msg, err)
		}
	}
	if got := dropped.Value(); got != over {
		t.Fatalf("dropped = %d, want %d", got, over)
	}
	// Once the channel exists, delivery is no longer backlog-bounded.
	for i := 0; i < sent; i++ {
		if err := m0.Channel("late").Send(1, sent+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sent; i++ {
		msg, err := sub.Recv(ctx)
		if err != nil || msg.Payload != sent+i {
			t.Fatalf("post-create recv %d: %v %v", i, msg, err)
		}
	}
	if got := dropped.Value(); got != over {
		t.Fatalf("post-create drops moved: %d", got)
	}
}

// TestMuxChannelOf: the network records mux traffic with its wrapper on
// both ends — the send and the delivery to the channel's consumer — so
// inspectors group it by channel through ChannelOf.
func TestMuxChannelOf(t *testing.T) {
	nw := netsim.New(2, netsim.WithFIFO())
	ctx := ctxT(t)
	rec := trace.NewRecorder()
	nwT := netsim.New(2, netsim.WithFIFO(), netsim.WithRecorder(rec))
	m := msgnet.NewMux(ctx, nwT.Node(0))
	sub := msgnet.NewMux(ctx, nwT.Node(1)).Channel("shard/3")
	if err := m.Channel("shard/3").Send(1, "x"); err != nil {
		t.Fatal(err)
	}
	if msg, err := sub.Recv(ctx); err != nil || msg.Payload != "x" {
		t.Fatalf("recv: %v %v", msg, err)
	}
	tr := rec.Snapshot()
	found := map[trace.Kind]bool{}
	for _, ev := range tr.Events {
		if ch, ok := msgnet.ChannelOf(ev.Value); ok {
			if ch != "shard/3" {
				t.Fatalf("channel = %q", ch)
			}
			found[ev.Kind] = true
		}
	}
	if !found[trace.KindSend] || !found[trace.KindDeliver] {
		t.Fatalf("tagged events by kind: %v; want a send and a deliver", found)
	}
	if _, ok := msgnet.ChannelOf("bare"); ok {
		t.Fatal("untagged payload reported a channel")
	}
	_ = nw
}

// TestMuxLaneOrderIsPerLaneSeeded: on netsim each channel's lane pops
// in its own seeded adversarial order, a function of the seed and the
// lane's arrivals only, so draining the sibling lane first or last does
// not change it.
func TestMuxLaneOrderIsPerLaneSeeded(t *testing.T) {
	const k = 30
	order := func(aFirst bool) []any {
		nw := netsim.New(2, netsim.WithSeed(9))
		ctx := ctxT(t)
		m0, m1 := msgnet.NewMux(ctx, nw.Node(0)), msgnet.NewMux(ctx, nw.Node(1))
		for i := 0; i < k; i++ {
			if err := m0.Channel("a").Send(1, i); err != nil {
				t.Fatal(err)
			}
			if err := m0.Channel("b").Send(1, 100+i); err != nil {
				t.Fatal(err)
			}
		}
		drain := func(name string) []any {
			var got []any
			for {
				m, ok, err := m1.Channel(name).TryRecv()
				if err != nil || !ok {
					return got
				}
				got = append(got, m.Payload)
			}
		}
		if aFirst {
			a := drain("a")
			drain("b")
			return a
		}
		drain("b")
		return drain("a")
	}
	first, last := order(true), order(false)
	if len(first) != k || !slices.Equal(first, last) {
		t.Fatalf("lane a's order depends on lane b's draining:\n%v\n%v", first, last)
	}
	fifo := true
	for i, v := range first {
		fifo = fifo && v == i
	}
	if fifo {
		t.Fatal("lane a delivered in arrival order; the adversary never reordered it")
	}
}

// TestMuxRoutesWithoutAHop: a mux over netsim or the transport starts no
// goroutine, and a delivery wakes only the lane it is for — neither a
// sibling channel nor the parent's own Ready sees a token.
func TestMuxRoutesWithoutAHop(t *testing.T) {
	trs, err := transport.NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	})
	nw := netsim.New(2, netsim.WithFIFO())
	for _, tc := range []struct {
		name string
		a, b msgnet.Endpoint
	}{
		{"netsim", nw.Node(0), nw.Node(1)},
		{"transport", trs[0], trs[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxT(t)
			before := runtime.NumGoroutine()
			a := msgnet.NewMux(ctx, tc.a).Channel("a")
			mb := msgnet.NewMux(ctx, tc.b)
			a1, b1 := mb.Channel("a"), mb.Channel("b")
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("NewMux and Channel started %d goroutines", after-before)
			}
			if err := a.Send(1, raft.RequestVote{Term: 1}); err != nil {
				t.Fatal(err)
			}
			awaitToken(t, a1)
			if m, ok, err := a1.TryRecv(); !ok || err != nil || m.Payload != (raft.RequestVote{Term: 1}) {
				t.Fatalf("channel a: %v %v %v", m, ok, err)
			}
			select {
			case <-b1.Ready():
				t.Fatal("a delivery to channel a woke channel b")
			case <-tc.b.Ready():
				t.Fatal("a delivery to channel a woke the parent's own Ready")
			default:
			}
		})
	}
}
