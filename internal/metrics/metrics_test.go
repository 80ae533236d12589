package metrics

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsDiscard(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	// All of these must be safe no-ops.
	c.Inc(3)
	c.Add(-1, 7)
	g.Set(9)
	g.Add(-2)
	h.Observe(0, time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty, got %+v", snap)
	}
}

func TestCounterShardsFold(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sends_total")
	if c != r.Counter("sends_total") {
		t.Fatal("Counter must be get-or-create")
	}
	for hint := -1; hint < 40; hint++ {
		c.Add(hint, 2)
	}
	if got := c.Value(); got != 82 {
		t.Fatalf("Value = %d, want 82", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(g)
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("lost updates: %d, want %d", got, goroutines*per)
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := r.Histogram("lat", bounds)
	// 50 fast, 30 medium, 15 slow, 5 off the top.
	for i := 0; i < 50; i++ {
		h.Observe(i, 500*time.Microsecond)
	}
	for i := 0; i < 30; i++ {
		h.Observe(i, 5*time.Millisecond)
	}
	for i := 0; i < 15; i++ {
		h.Observe(i, 50*time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(i, time.Second)
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.Count != 100 {
		t.Fatalf("count = %d, want 100", hs.Count)
	}
	wantCounts := []int64{50, 30, 15, 5}
	for i, want := range wantCounts {
		if hs.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], want, hs.Counts)
		}
	}
	if q := hs.Quantile(0.5); q != time.Millisecond {
		t.Fatalf("p50 = %v, want 1ms", q)
	}
	if q := hs.Quantile(0.9); q != 100*time.Millisecond {
		t.Fatalf("p90 = %v, want 100ms", q)
	}
	// +Inf observations report the top finite bound.
	if q := hs.Quantile(0.999); q != 100*time.Millisecond {
		t.Fatalf("p99.9 = %v, want 100ms", q)
	}
	wantSum := 50*500*time.Microsecond + 30*5*time.Millisecond + 15*50*time.Millisecond + 5*time.Second
	if hs.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", hs.Sum, wantSum)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	h := NewRegistry().Histogram("h", nil)
	h.Observe(0, 3*time.Microsecond)
	hs := h.snapshot()
	if len(hs.Bounds) != len(DefaultLatencyBuckets) {
		t.Fatalf("bounds = %d, want %d", len(hs.Bounds), len(DefaultLatencyBuckets))
	}
	if hs.Counts[1] != 1 { // 3µs lands in the (1µs, 4µs] bucket
		t.Fatalf("3µs in wrong bucket: %v", hs.Counts)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc(0)
	snap := r.Snapshot()
	snap.Counters["a"] = 999
	if got := r.Snapshot().Counters["a"]; got != 1 {
		t.Fatalf("snapshot aliased registry state: %d", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("x_total"); got != "x_total" {
		t.Fatalf("no-label: %q", got)
	}
	got := Label("x_total", "object", "vac", "outcome", "commit")
	want := `x_total{object="vac",outcome="commit"}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	b.ReportAllocs()
	c := NewRegistry().Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Inc(i)
			i++
		}
	})
}

func BenchmarkNilCounterAdd(b *testing.B) {
	b.ReportAllocs()
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc(i)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	b.ReportAllocs()
	h := NewRegistry().Histogram("h", nil)
	for i := 0; i < b.N; i++ {
		h.Observe(i, time.Duration(i%1000)*time.Microsecond)
	}
}

func TestObserveSinceAndTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat2", nil)
	start := time.Now().Add(-10 * time.Millisecond)
	h.ObserveSince(0, start)

	tm := h.Start(1)
	time.Sleep(time.Millisecond)
	d := tm.ObserveDuration()
	if d < time.Millisecond {
		t.Fatalf("timer measured %v, want >= 1ms", d)
	}

	hs := r.Snapshot().Histograms["lat2"]
	if hs.Count != 2 {
		t.Fatalf("count = %d, want 2", hs.Count)
	}
	if hs.Sum < 11*time.Millisecond {
		t.Fatalf("sum = %v, want >= 11ms", hs.Sum)
	}
}

func TestServeMountsExtraRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc(0)
	srv, err := Serve("127.0.0.1:0", r,
		Route{Pattern: "/debug/custom", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("custom-ok"))
		})},
		Route{}, // empty pattern: skipped, not fatal
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if got := get("/debug/custom"); got != "custom-ok" {
		t.Fatalf("extra route returned %q", got)
	}
	if got := get("/metrics"); !strings.Contains(got, "c 1") {
		t.Fatalf("metrics route broken: %q", got)
	}
}

func TestWithLabelsEveryName(t *testing.T) {
	var nilReg *Registry
	if v := nilReg.With("shard", "0"); v != nil || v.Counter("c") != nil {
		t.Fatal("a nil registry's view must be nil and hand out nil instruments")
	}
	r := NewRegistry()
	v := r.With("shard", "1")
	v.Counter("plain_total").Inc(0)
	v.Gauge(Label("depth", "node", "2")).Set(5)
	v.Histogram(Label("lat_seconds", "node", "2", "mode", "x"), nil).Observe(0, time.Millisecond)
	vv := v.With("zone", "b")
	vv.Counter(Label("x_total", "node", "0")).Add(0, 3)
	if vv.Counter(Label("x_total", "node", "0")) != r.Counter(`x_total{node="0",shard="1",zone="b"}`) {
		t.Fatal("a view of a view must register the parent's series with both labels")
	}
	for _, snap := range []Snapshot{r.Snapshot(), v.Snapshot(), vv.Snapshot()} {
		if snap.Counters[`plain_total{shard="1"}`] != 1 || snap.Counters[`x_total{node="0",shard="1",zone="b"}`] != 3 ||
			snap.Gauges[`depth{node="2",shard="1"}`] != 5 || snap.Histograms[`lat_seconds{node="2",mode="x",shard="1"}`].Count != 1 {
			t.Fatalf("every snapshot of the namespace must list the views' series, got %+v", snap)
		}
		if len(snap.Counters) != 2 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
			t.Fatalf("the views registered series beyond their own: %+v", snap)
		}
	}
	if v.Counter("plain_total") == r.Counter("plain_total") {
		t.Fatal("a view must not share the unlabeled series")
	}
}

func TestWithConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	views := []*Registry{r.With("shard", "0"), r.With("shard", "1")}
	const goroutines, per = 4, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := views[g%len(views)]
			for i := 0; i < per; i++ {
				v.Counter(Label("c_total", "node", "0")).Inc(g)
				v.Gauge("g").Set(int64(i))
				v.Histogram("h", nil).Observe(g, time.Microsecond)
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	for _, s := range []string{"0", "1"} {
		if got := snap.Counters[`c_total{node="0",shard="`+s+`"}`]; got != goroutines/2*per {
			t.Fatalf("shard %s counted %d, want %d", s, got, goroutines/2*per)
		}
	}
}
