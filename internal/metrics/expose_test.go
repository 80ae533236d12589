package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter(Label("sends_total", "proto", "benor")).Add(0, 42)
	r.Counter("drops_total").Add(1, 3)
	r.Gauge("mailbox_depth{node=\"0\"}").Set(7)
	h := r.Histogram(Label("invoke_seconds", "object", "vac"), []time.Duration{time.Millisecond, time.Second})
	h.Observe(0, 500*time.Microsecond)
	h.Observe(0, 100*time.Millisecond)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE drops_total counter",
		"drops_total 3",
		`sends_total{proto="benor"} 42`,
		"# TYPE mailbox_depth gauge",
		`mailbox_depth{node="0"} 7`,
		"# TYPE invoke_seconds histogram",
		`invoke_seconds_bucket{object="vac",le="0.001"} 1`,
		`invoke_seconds_bucket{object="vac",le="1"} 2`,
		`invoke_seconds_bucket{object="vac",le="+Inf"} 2`,
		`invoke_seconds_count{object="vac"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Sum is in seconds: 0.0005 + 0.1 = 0.1005.
	if !strings.Contains(out, `invoke_seconds_sum{object="vac"} 0.1005`) {
		t.Fatalf("histogram sum not in seconds:\n%s", out)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := testRegistry().Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("prometheus rendering is not deterministic")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if snap.Counters["drops_total"] != 3 {
		t.Fatalf("counters lost in JSON: %+v", snap.Counters)
	}
	if snap.Histograms[`invoke_seconds{object="vac"}`].Count != 2 {
		t.Fatalf("histograms lost in JSON: %+v", snap.Histograms)
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	srv := httptest.NewServer(testRegistry().Handler())
	defer srv.Close()

	get := func(url, accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get(srv.URL, "")
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(body, "drops_total 3") {
		t.Fatalf("default scrape not prometheus text: %s %q", ctype, body)
	}
	body, ctype = get(srv.URL+"?format=json", "")
	if !strings.Contains(ctype, "application/json") || !strings.Contains(body, `"drops_total": 3`) {
		t.Fatalf("?format=json not JSON: %s %q", ctype, body)
	}
	body, _ = get(srv.URL, "application/json")
	if !strings.Contains(body, `"drops_total": 3`) {
		t.Fatalf("Accept: application/json not honoured: %q", body)
	}
}

func TestServeMountsMetricsAndPprof(t *testing.T) {
	reg := testRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":             "drops_total 3",
		"/debug/pprof/":        "profile",
		"/metrics?format=json": `"drops_total": 3`,
	} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("GET %s missing %q:\n%s", path, want, body)
		}
	}
}

// Two scrapes, goroutines made to queue before each: both scheduler
// latency quantiles and the P count are on the text document, the
// quantiles are non-negative and ordered, and the second scrape — the
// first to subtract a previous reading — is as well-formed as the first.
func TestHandlerExportsSchedulerLatency(t *testing.T) {
	h := testRegistry().Handler()
	scrape := func() map[string]float64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		got := map[string]float64{}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if !strings.HasPrefix(line, "go_sched_") {
				continue
			}
			name, value, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed series line %q", line)
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			got[name] = v
		}
		return got
	}
	for round := 0; round < 2; round++ {
		// More runnable goroutines than Ps, so some of them wait.
		var wg sync.WaitGroup
		for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		got := scrape()
		p50, ok50 := got[`go_sched_latency_seconds{quantile="0.5"}`]
		p99, ok99 := got[`go_sched_latency_seconds{quantile="0.99"}`]
		procs, okProcs := got["go_sched_gomaxprocs"]
		if !ok50 || !ok99 || !okProcs {
			t.Fatalf("scrape %d: scheduler series missing: %v", round, got)
		}
		if p50 < 0 || p99 < p50 {
			t.Fatalf("scrape %d: p50 %g, p99 %g: want 0 <= p50 <= p99", round, p50, p99)
		}
		if int(procs) != runtime.GOMAXPROCS(0) {
			t.Fatalf("scrape %d: go_sched_gomaxprocs %g, runtime says %d", round, procs, runtime.GOMAXPROCS(0))
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{math.Inf(-1), 0, 1e-6, 1e-3, math.Inf(1)}
	for _, tc := range []struct {
		counts []uint64
		q      float64
		want   float64
	}{
		{[]uint64{0, 0, 0, 0}, 0.5, 0},      // an idle interval
		{[]uint64{0, 99, 1, 0}, 0.5, 1e-6},  // upper bound of the bucket holding the rank
		{[]uint64{0, 99, 1, 0}, 0.99, 1e-6}, // rank 99 is still in the second bucket
		{[]uint64{0, 98, 2, 0}, 0.99, 1e-3}, // rank 99 is the first of the third
		{[]uint64{0, 0, 0, 5}, 0.5, 1e-3},   // overflow bucket reports its lower bound
		{[]uint64{3, 0, 0, 0}, 0.99, 0},     // underflow bucket's upper bound
	} {
		var total uint64
		for _, c := range tc.counts {
			total += c
		}
		if got := bucketQuantile(bounds, tc.counts, total, tc.q); got != tc.want {
			t.Errorf("bucketQuantile(%v, q=%g) = %g, want %g", tc.counts, tc.q, got, tc.want)
		}
	}
}
