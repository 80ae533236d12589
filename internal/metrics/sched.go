package metrics

import (
	"fmt"
	"io"
	"math"
	rtmetrics "runtime/metrics"
	"sync"
)

// schedSampler reports how long goroutines sat runnable before they ran —
// the Go scheduler's own latency histogram, /sched/latencies:seconds —
// as quantiles over the interval since the previous scrape, so a node
// whose goroutines queue behind a blocked P says so on /metrics without a
// trace being taken. The runtime's histogram is cumulative since process
// start; the sampler keeps the last reading and reports the difference.
type schedSampler struct {
	mu      sync.Mutex
	prev    []uint64 // bucket counts at the previous scrape
	samples [2]rtmetrics.Sample
}

func newSchedSampler() *schedSampler {
	s := &schedSampler{}
	s.samples[0].Name = "/sched/latencies:seconds"
	s.samples[1].Name = "/sched/gomaxprocs:threads"
	return s
}

// writePrometheus appends go_sched_latency_seconds{quantile="0.5"|"0.99"}
// and go_sched_gomaxprocs to a Prometheus text document. A runtime that
// lacks either metric leaves its series out.
func (s *schedSampler) writePrometheus(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rtmetrics.Read(s.samples[:])
	if s.samples[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := s.samples[0].Value.Float64Histogram()
		if len(s.prev) != len(h.Counts) {
			s.prev = make([]uint64, len(h.Counts))
		}
		delta := make([]uint64, len(h.Counts))
		var total uint64
		for i, c := range h.Counts {
			delta[i] = c - s.prev[i]
			total += delta[i]
		}
		copy(s.prev, h.Counts)
		if _, err := fmt.Fprintf(w, "# TYPE go_sched_latency_seconds summary\n"+
			"go_sched_latency_seconds{quantile=\"0.5\"} %g\n"+
			"go_sched_latency_seconds{quantile=\"0.99\"} %g\n",
			bucketQuantile(h.Buckets, delta, total, 0.5),
			bucketQuantile(h.Buckets, delta, total, 0.99)); err != nil {
			return err
		}
	}
	if s.samples[1].Value.Kind() == rtmetrics.KindUint64 {
		if _, err := fmt.Fprintf(w, "# TYPE go_sched_gomaxprocs gauge\ngo_sched_gomaxprocs %d\n", s.samples[1].Value.Uint64()); err != nil {
			return err
		}
	}
	return nil
}

// bucketQuantile returns the upper bound of the bucket holding the q-th
// of total observations (the lower one where the upper is +Inf), and 0
// when there are none. bounds has one more element than counts, as in
// runtime/metrics.Float64Histogram.
func bucketQuantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if hi := bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return bounds[i]
		}
	}
	return 0 // unreachable: the counts sum to total
}
