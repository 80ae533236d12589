package main

import (
	"runtime"
	"time"
)

// benchNs calls fn iters times per batch for reps batches, the iteration
// index running on across batches, and returns the median batch's mean
// ns per call. The counts are fixed so two runs do the same work.
func benchNs(reps, iters int, fn func(i int)) float64 {
	ns, _ := benchNsAllocs(reps, iters, fn)
	return ns
}

// benchNsAllocs is benchNs that also reports the median batch's heap
// allocations per call, read from the runtime's malloc counter (so it is
// only meaningful while nothing else in the process allocates).
func benchNsAllocs(reps, iters int, fn func(i int)) (ns, allocs float64) {
	nss := make([]float64, reps)
	als := make([]float64, reps)
	var before, after runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(r*iters + i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		nss[r] = float64(el) / float64(iters)
		als[r] = float64(after.Mallocs-before.Mallocs) / float64(iters)
	}
	return median(nss), median(als)
}
