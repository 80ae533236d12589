package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule, so the value is always one that was measured.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle of vs (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean is the interquartile mean: the mean of what is left after the
// lowest and the highest quarter of vs are dropped. Like a median it
// ignores a few wild values; unlike one it moves smoothly when the
// values fall into two clusters and their proportion shifts.
func midmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// slicedPercentile is the statistic every latency metric reports: the
// q-quantile is taken within each one-second slice of the window, and the
// midmean over slices is returned. One stalled second — a neighbour's
// fsync storm, a GC cycle landing badly — moves one slice, not the run's
// number. Slices with no samples are skipped.
func slicedPercentile(slices [][]float64, q float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		per = append(per, percentile(s, q))
	}
	return midmean(per)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
