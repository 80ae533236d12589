package netsim

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ooc/internal/metrics"
	"ooc/internal/msgnet"
	"ooc/internal/trace"
)

// fingerprint renders a trace's semantic content — kinds, endpoints,
// payloads, sizes, and sequence — as comparable strings.
func fingerprint(tr trace.Trace) []string {
	out := make([]string, 0, len(tr.Events))
	for _, ev := range tr.Events {
		out = append(out, fmt.Sprintf("%d %v n=%d p=%d r=%d b=%d v=%v",
			ev.Seq, ev.Kind, ev.Node, ev.Peer, ev.Round, ev.Bytes, ev.Value))
	}
	return out
}

// queued reports how many messages are pending for id (test-only peek).
func queued(nw *Network, id int) int { return nw.boxes[id].Len() }

// drain pops every pending message for id through the endpoint path.
func drain(t *testing.T, nw *Network, id int) []any {
	t.Helper()
	var got []any
	for queued(nw, id) > 0 {
		m, err := nw.Node(id).Recv(ctxT(t))
		if err != nil {
			t.Fatalf("drain node %d: %v", id, err)
		}
		got = append(got, m.Payload)
	}
	return got
}

// TestSameSeedIdenticalTrace is the sharded simulator's determinism
// regression: one deterministic driver exercising broadcasts, direct
// sends, drop and duplication coins, a mid-broadcast quota crash, and
// adversarially reordered receives must produce a bit-identical event
// trace — the same sends, drops, delivers, and decisions, in the same
// order with the same sequence numbers — on every run with the same root
// seed.
func TestSameSeedIdenticalTrace(t *testing.T) {
	run := func(seed uint64) []string {
		const n = 5
		rec := trace.NewRecorder()
		nw := New(n, WithSeed(seed), WithRecorder(rec), WithDropRate(0.2), WithDupRate(0.2))
		nw.CrashAfterSends(4, 7) // node 4 dies mid-broadcast in round 2
		for round := 1; round <= 3; round++ {
			for id := 0; id < n; id++ {
				if err := nw.Node(id).Broadcast(fmt.Sprintf("r%d-from%d", round, id)); err != nil {
					if id != 4 {
						t.Fatalf("broadcast from %d: %v", id, err)
					}
					continue
				}
				if err := nw.Node(id).Send((id+1)%n, round*100+id); err != nil && id != 4 {
					t.Fatalf("send from %d: %v", id, err)
				}
			}
			// Interleave receives with sends: each live node pops half its
			// backlog through the adversarial reorderer, then "decides".
			for id := 0; id < n; id++ {
				if nw.Crashed(id) {
					continue
				}
				for k := queued(nw, id) / 2; k > 0; k-- {
					m, err := nw.Node(id).Recv(ctxT(t))
					if err != nil {
						t.Fatalf("recv node %d: %v", id, err)
					}
					rec.Deliver(id, m.From, round, nil) // extra per-round marker
				}
				rec.Decide(id, round, fmt.Sprintf("decision-%d-%d", id, round))
			}
		}
		for id := 0; id < n; id++ {
			if !nw.Crashed(id) {
				drain(t, nw, id)
			}
		}
		return fingerprint(rec.Snapshot())
	}

	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverge at event %d:\n run1: %s\n run2: %s", i, a[i], b[i])
		}
	}
	if c := run(43); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces; the seed is not reaching the schedule")
		}
	}
}

// TestReceiverStreamInsulation pins the split-stream contract: a
// receiver's adversarial delivery order is a function of the root seed
// and its own arrival sequence only, so operations on other mailboxes —
// here, a completely different drain interleaving of node 3 — cannot
// perturb node 2's observed order. Under the old single shared RNG this
// fails, because every pop anywhere advanced the one global stream.
func TestReceiverStreamInsulation(t *testing.T) {
	const k = 30
	setup := func() *Network {
		nw := New(4, WithSeed(9))
		for i := 0; i < k; i++ {
			if err := nw.Node(0).Send(2, i); err != nil {
				t.Fatal(err)
			}
			if err := nw.Node(1).Send(3, 100+i); err != nil {
				t.Fatal(err)
			}
		}
		return nw
	}

	// Run A: drain node 2 completely, then node 3.
	nwA := setup()
	orderA := drain(t, nwA, 2)
	drain(t, nwA, 3)

	// Run B: alternate pops between nodes 3 and 2.
	nwB := setup()
	var orderB []any
	for queued(nwB, 2) > 0 || queued(nwB, 3) > 0 {
		if queued(nwB, 3) > 0 {
			if _, err := nwB.Node(3).Recv(ctxT(t)); err != nil {
				t.Fatal(err)
			}
		}
		if queued(nwB, 2) > 0 {
			m, err := nwB.Node(2).Recv(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			orderB = append(orderB, m.Payload)
		}
	}

	if len(orderA) != k || len(orderB) != k {
		t.Fatalf("drained %d and %d messages, want %d each", len(orderA), len(orderB), k)
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("node 2's delivery order depends on node 3's drain interleaving: position %d got %v vs %v\nA: %v\nB: %v",
				i, orderA[i], orderB[i], orderA, orderB)
		}
	}
}

// TestConcurrentEndpointsExchange exercises the sharded hot path from
// truly concurrent endpoints — every node broadcasting and receiving at
// once with a recorder attached — so `go test -race` patrols the mailbox
// shards, split RNG streams, and sharded recorder. Delivery on a
// fault-free network must remain exactly-once.
func TestConcurrentEndpointsExchange(t *testing.T) {
	const n, per = 8, 50
	rec := trace.NewRecorder()
	nw := New(n, WithSeed(77), WithRecorder(rec))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	recvCounts := make([]int, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ep := nw.Node(id)
			got := 0
			for i := 0; i < per; i++ {
				if err := ep.Broadcast(fmt.Sprintf("b%d-%d", id, i)); err != nil {
					t.Errorf("node %d broadcast: %v", id, err)
					return
				}
				// Interleave receiving so mailboxes stay bounded.
				for queued(nw, id) > 0 {
					if _, err := ep.Recv(ctx); err != nil {
						t.Errorf("node %d recv: %v", id, err)
						return
					}
					got++
				}
			}
			for got < n*per {
				if _, err := ep.Recv(ctx); err != nil {
					t.Errorf("node %d recv: %v", id, err)
					return
				}
				got++
			}
			recvCounts[id] = got
		}(id)
	}
	wg.Wait()
	for id, got := range recvCounts {
		if got != n*per {
			t.Fatalf("node %d received %d messages, want %d", id, got, n*per)
		}
	}
	st := trace.Summarize(rec.Snapshot())
	if st.MessagesSent != n*n*per || st.MessagesDelivered != n*n*per || st.MessagesDropped != 0 {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// TestConcurrentFaultChurn hammers the control plane (crash, restart,
// partition, heal, quotas) while endpoints send and receive, for the race
// detector; it asserts only that the simulator never deadlocks or
// delivers to the wrong node.
func TestConcurrentFaultChurn(t *testing.T) {
	const n = 6
	nw := New(n, WithSeed(5), WithDropRate(0.05), WithDupRate(0.05))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ep := nw.Node(id)
			for i := 0; ctx.Err() == nil && i < 500; i++ {
				_ = ep.Broadcast(i)
				rctx, rcancel := context.WithTimeout(ctx, time.Millisecond)
				if m, err := ep.Recv(rctx); err == nil && m.To != id {
					t.Errorf("node %d received a message addressed to %d", id, m.To)
				}
				rcancel()
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil && i < 100; i++ {
			victim := i % n
			switch i % 4 {
			case 0:
				nw.Crash(victim)
			case 1:
				nw.Restart(victim)
			case 2:
				nw.Partition([]int{0, 1, 2}, []int{3, 4, 5})
			case 3:
				nw.Heal()
			}
			nw.CrashAfterSends((victim+1)%n, 50)
			time.Sleep(time.Millisecond)
		}
		for id := 0; id < n; id++ {
			nw.Restart(id)
		}
	}()
	wg.Wait()
	var _ msgnet.Endpoint = nw.Node(0)
}

// TestMetricsMatchTraceSummary is the telemetry layer's ground-truth
// property: the metrics registry and the trace recorder watch the same
// run through independent code paths (atomic counters on the hot path vs
// recorded events folded by Summarize), so for any seeded run — drops,
// duplications, and a mid-broadcast crash included — the two accountings
// must agree exactly on sends, deliveries, drops, and bytes, and every
// mailbox-depth gauge must read zero once the mailboxes are drained.
func TestMetricsMatchTraceSummary(t *testing.T) {
	for _, seed := range []uint64{7, 42, 1337} {
		rec := trace.NewRecorder()
		reg := metrics.NewRegistry()
		const n = 5
		nw := New(n, WithSeed(seed), WithRecorder(rec), WithMetrics(reg),
			WithDropRate(0.2), WithDupRate(0.2))
		nw.CrashAfterSends(4, 7)
		for round := 1; round <= 3; round++ {
			for id := 0; id < n; id++ {
				if err := nw.Node(id).Broadcast(fmt.Sprintf("r%d-from%d", round, id)); err != nil {
					if id != 4 {
						t.Fatalf("broadcast from %d: %v", id, err)
					}
					continue
				}
				if err := nw.Node(id).Send((id+1)%n, round*100+id); err != nil && id != 4 {
					t.Fatalf("send from %d: %v", id, err)
				}
			}
		}
		for id := 0; id < n; id++ {
			if !nw.Crashed(id) {
				drain(t, nw, id)
			}
		}

		stats := trace.Summarize(rec.Snapshot())
		snap := reg.Snapshot()
		for metric, want := range map[string]int{
			"netsim_sends_total":      stats.MessagesSent,
			"netsim_delivers_total":   stats.MessagesDelivered,
			"netsim_drops_total":      stats.MessagesDropped,
			"netsim_sent_bytes_total": stats.BytesSent,
		} {
			if got := snap.Counters[metric]; got != int64(want) {
				t.Fatalf("seed %d: %s = %d, trace says %d", seed, metric, got, want)
			}
		}
		if stats.MessagesSent == 0 {
			t.Fatalf("seed %d: degenerate run, nothing sent", seed)
		}
		for id := 0; id < n; id++ {
			gauge := metrics.Label("netsim_mailbox_depth", "node", fmt.Sprint(id))
			depth, ok := snap.Gauges[gauge]
			if !ok {
				t.Fatalf("seed %d: gauge %s not registered", seed, gauge)
			}
			if want := int64(queued(nw, id)); depth != want {
				t.Fatalf("seed %d: %s = %d, mailbox holds %d", seed, gauge, depth, want)
			}
			if !nw.Crashed(id) && depth != 0 {
				t.Fatalf("seed %d: node %d drained but gauge reads %d", seed, id, depth)
			}
		}
	}
}
