package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of latencies.
type samples []time.Duration

// quantile returns the q-quantile (0 < q ≤ 1) by the nearest-rank
// method, in milliseconds; 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(math.Ceil(q*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(c[rank]) / float64(time.Millisecond)
}

// mean returns the mean in milliseconds; 0 for an empty list.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / float64(time.Millisecond)
}

// median of a float list (0 for an empty list).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Windowed statistics: a phase is cut into equal windows by
// completion time, a statistic is taken per window, and the median over
// the windows is reported, so a few seconds of a disturbed machine move
// it less. There are at most maxWindows windows, fewer when the
// samples are too few for each window to hold about minPerWindow.
const (
	maxWindows   = 10
	minPerWindow = 200
)

// windowCount is the number of windows for n samples.
func windowCount(n int) int { return min(maxWindows, max(1, n/minPerWindow)) }

// windowed returns the median over windows of f applied to each
// window's samples and length. The windows divide span; samples
// completing after it are left out. A single window is the whole
// phase: every sample, over elapsed.
func windowed(lat samples, ends []time.Duration, span, elapsed time.Duration, f func(samples, time.Duration) float64) float64 {
	n := windowCount(len(ends))
	if n == 1 {
		return f(lat, elapsed)
	}
	w := span / time.Duration(n)
	per := make([]samples, n)
	for i, e := range ends {
		if k := int(e / w); k < n {
			per[k] = append(per[k], lat[i])
		}
	}
	vals := make([]float64, n)
	for k := range per {
		vals[k] = f(per[k], w)
	}
	return median(vals)
}

// average of a float list (0 for an empty list).
func average(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
