package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be reported at all.
const minBeyond = 10

// highestPercentile returns the highest of the standard percentiles
// (50, 90, 95, 99, 99.9) that has at least minBeyond of n samples beyond
// it, and false when even the median has fewer.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// beyond is the number of samples of n strictly above the p-th percentile
// under the nearest-rank definition used by percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps p·n/100 that is a whole number in exact arithmetic
	// from rounding up a rank through float error (99.9·10000/100).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// latencies collects operation outcomes. A failed or refused operation is
// recorded as +Inf, so it counts as missing every latency limit and pushes
// every percentile up rather than vanishing from the sample.
type latencies struct {
	xs     []float64 // milliseconds; +Inf for failures
	failed int
}

func newLatencies(capacity int) *latencies {
	return &latencies{xs: make([]float64, 0, capacity)}
}

func (l *latencies) ok(d time.Duration) { l.xs = append(l.xs, ms(d)) }

func (l *latencies) fail() {
	l.xs = append(l.xs, math.Inf(1))
	l.failed++
}

func (l *latencies) attempted() int { return len(l.xs) }

// percentile returns the nearest-rank p-th percentile; +Inf when the rank
// lands on a failure.
func (l *latencies) percentile(p float64) float64 {
	return percentile(l.xs, p)
}

// percentile is the nearest-rank p-th percentile of xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a share with the count it was taken over: hits/base.
type ratio struct {
	num, base int64
}

// value is num/base, or 0 over an empty base (reported together with the
// zero base, never alone).
func (r ratio) value() float64 {
	if r.base <= 0 {
		return 0
	}
	return float64(r.num) / float64(r.base)
}

// interval is a span of time in nanoseconds from the trace origin.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child. Children may
// overlap each other (hedged tries run concurrently), so their covered
// time is the length of the union of their intersections with parent,
// never a sum. The result is never negative.
func selfTime(parent interval, children []interval) int64 {
	if parent.end <= parent.start {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curS, curE, open = c.start, c.end, true
		case c.start <= curE:
			curE = max(curE, c.end)
		default:
			covered += curE - curS
			curS, curE = c.start, c.end
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}
