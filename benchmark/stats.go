package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values with linear
// interpolation between closest ranks, the method Python's
// statistics.quantiles(method="inclusive") and most spreadsheets use.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns the values in ascending order without disturbing
// the caller's (time-ordered) slice.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (NaN for an empty sample).
func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

// tailPercentile returns the highest percentile that still has at least
// minBeyond samples above it, capped at ceiling: the guide's rule for
// which tail a sample can support. With n samples the rank is
// n-minBeyond-1; fewer than 2*minBeyond samples cannot support any tail
// above the median, so the median is returned with q = 0.5.
func tailPercentile(values []float64, minBeyond int, ceiling float64) (value, q float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(values)
	q = 1 - float64(minBeyond)/float64(n)
	if q > ceiling {
		q = ceiling
	}
	if q < 0.5 {
		q = 0.5
	}
	return quantile(s, q), q
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the exclusive method Python's
// statistics.quantiles(values, n=4) defaults to — the acceptance rule
// for run-to-run steadiness. It needs at least two values.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return math.NaN()
	}
	s := sortedCopy(values)
	exclusive := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return math.NaN()
	}
	return (exclusive(3) - exclusive(1)) / math.Abs(med)
}

// span is one timed interval on the benchmark's own clock (nanoseconds
// since the recorder's epoch).
type span struct {
	Name   uint8
	Rack   int32
	Period int32
	Start  int64
	End    int64
}

// unionCover returns how much of [lo, hi) the spans cover, counting
// overlapping stretches once, and the plain sum of their clipped
// durations. cover is the part of the parent interval that was blocked
// on at least one child; busy − cover is work that ran in parallel.
// spans is sorted in place by start time.
func unionCover(spans []span, lo, hi int64) (cover, busy int64) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	curLo, curHi := int64(0), int64(-1)
	for i := range spans {
		s, e := spans[i].Start, spans[i].End
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		busy += e - s
		if curHi < curLo || s > curHi {
			if curHi > curLo {
				cover += curHi - curLo
			}
			curLo, curHi = s, e
		} else if e > curHi {
			curHi = e
		}
	}
	if curHi > curLo {
		cover += curHi - curLo
	}
	return cover, busy
}
