package main

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"
)

// stubKV is an in-memory kv that stalls once, on its stallAt-th Put.
type stubKV struct {
	mu      sync.Mutex
	data    map[string]string
	puts    int
	stallAt int
	stall   time.Duration
}

func (s *stubKV) Put(_ context.Context, key, value string) error {
	s.mu.Lock()
	s.puts++
	stall := s.puts == s.stallAt
	if s.data == nil {
		s.data = map[string]string{}
	}
	s.data[key] = value
	s.mu.Unlock()
	if stall {
		time.Sleep(s.stall)
	}
	return nil
}

func (s *stubKV) Get(_ context.Context, key string) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok, nil
}

// An open loop must keep to its schedule through a stall, and count the
// stall against every op that was due while it lasted.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		rate  = 1000.0
		stall = 50 * time.Millisecond
	)
	stub := &stubKV{stallAt: 50, stall: stall}
	// One worker, so ops due during the stall queue behind it.
	g := newGenerator(stub, time.Now(), workload{clients: 1, rate: rate}, 1, 0, nil)
	g.start()
	time.Sleep(300 * time.Millisecond)
	g.halt()

	recs := g.clients[0].recs
	if len(recs) < 250 {
		t.Fatalf("issued %d ops in 300 ms at %v/s; the schedule fell behind", len(recs), rate)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	interval := int64(float64(time.Second) / rate)
	for i := 1; i < len(recs); i++ {
		if gap := recs[i].due - recs[i-1].due; gap < interval-1 || gap > interval+1 {
			t.Fatalf("op %d due %d ns after its predecessor, want %d: an op of the schedule was skipped", i, gap, interval)
		}
	}
	queued := 0
	for _, r := range recs {
		if r.failed {
			t.Fatalf("op failed against the stub: %+v", r)
		}
		fromDue, fromIssue := time.Duration(r.ret-r.due), time.Duration(r.ret-r.issued)
		if fromDue >= stall/2 && fromIssue < stall/10 {
			queued++
		}
	}
	// 50 ops fell due during the stall; those in its first half waited
	// more than half of it.
	if queued < 15 {
		t.Fatalf("%d ops carry the stall in their due-time latency but not their service time, want ≥ 15", queued)
	}
	if g.maxInflight < 25 {
		t.Fatalf("max inflight %d, want the stall's backlog (≥ 25)", g.maxInflight)
	}
}

func drawN(seed uint64, n int) []draw {
	d := newDrawer(newRNG(seed).Stream('c', 0), 0.5, true)
	out := make([]draw, n)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

func TestSeedFixesOpSequence(t *testing.T) {
	a, b, c := drawN(7, 500), drawN(7, 500), drawN(8, 500)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between two generators with the same seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 produced the identical op sequence")
	}

	// The same holds through the closed loop: what reaches the program is
	// a function of the seed.
	run := func(seed uint64) []opRec {
		g := newGenerator(&stubKV{}, time.Now(), workload{clients: 1, readFrac: 0.5}, seed, 0, nil)
		g.start()
		for g.completed.Load() < 200 {
			time.Sleep(time.Millisecond)
		}
		g.halt()
		return g.clients[0].recs[:200]
	}
	x, y, z := run(7), run(7), run(8)
	differ := false
	for i := range x {
		if x[i].key != y[i].key || x[i].read != y[i].read {
			t.Fatalf("op %d differs between two closed loops with the same seed", i)
		}
		if x[i].key != z[i].key || x[i].read != z[i].read {
			differ = true
		}
	}
	if !differ {
		t.Fatal("closed loops with seeds 7 and 8 issued the identical ops")
	}
}

func TestValueCarriesIdentityAndRequest(t *testing.T) {
	c := newClient(37)
	c.version = 123456
	v := c.value('q', 0xabc123, true)
	if len(v) != valueLen {
		t.Fatalf("value is %d bytes, want %d", len(v), valueLen)
	}
	if cl, ver, ok := valueIdentity(v); !ok || cl != 37 || ver != 123456 {
		t.Fatalf("valueIdentity = %d, %d, %v", cl, ver, ok)
	}
	if req, ok := valueRequest(v); !ok || req != 0xabc123 {
		t.Fatalf("valueRequest = %#x, %v", req, ok)
	}
	if _, ok := valueRequest(c.value('q', 0, false)); ok {
		t.Fatal("an unsampled value claims a request id")
	}
	if _, _, ok := valueIdentity("warm"); ok {
		t.Fatal("a foreign value parsed as one of ours")
	}
}
