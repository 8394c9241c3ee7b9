package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// beyond counts the samples strictly above the nearest-rank q-quantile of n
// samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest ladder percentile, at most maxQ, that has
// at least ten samples beyond it among n samples. It returns 0.5 when even
// the median has fewer than ten samples beyond it.
func tailQuantile(n int, maxQ float64) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if q <= maxQ && beyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
// A +Inf sample (a failed request) sorts last and so counts as missing
// every limit. An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of xs; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// partQuantile splits xs, in time order, into parts contiguous parts of
// equal count and returns the median over the parts of each part's
// q-quantile, so a host stall that covers less than half the parts does not
// move it. xs is not changed.
func partQuantile(xs []float64, parts int, q float64) float64 {
	vals := make([]float64, parts)
	for i := range vals {
		vals[i] = quantile(append([]float64(nil), xs[i*len(xs)/parts:(i+1)*len(xs)/parts]...), q)
	}
	return median(vals)
}

// interval is a half-open [start, end) time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs; overlapping intervals count
// once. ivs is sorted in place.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if !open || iv.start > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv.start, iv.end, true
			continue
		}
		if iv.end > curE {
			curE = iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is the part of parent that none of its children cover. Children
// are clipped to the parent first, so a child that outlives its parent
// only removes the overlap.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	return (parent.end - parent.start) - unionLen(clipped)
}
