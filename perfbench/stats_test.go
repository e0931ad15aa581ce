package main

import (
	"math"
	"testing"
	"time"
)

func TestWindowSize(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 90: 100, 95: 200, 99: 1000, 99.9: 10000} {
		if got := windowSize(p); got != want {
			t.Errorf("windowSize(%v) = %d, want %d", p, got, want)
		}
		if beyond(windowSize(p), p) < minBeyond {
			t.Errorf("window of %d leaves too few beyond p%v", windowSize(p), p)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := highestPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond, want >= %d", tc.n, got, beyond(tc.n, got), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	l := newLatencies(0)
	for i := 0; i < 97; i++ {
		l.ok(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		l.fail()
	}
	if l.attempted() != 100 || l.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 100 and 3", l.attempted(), l.failed)
	}
	if got := l.percentile(50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// 3% failed: every percentile above p97 lands on a failure and must
	// read as a missed limit, not as the fastest remaining success.
	if got := l.percentile(99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 3%% failures = %v, want +Inf", got)
	}
	if got := l.percentile(97); got != 1 {
		t.Errorf("p97 = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping hedges", []interval{{110, 160}, {140, 190}}, 20},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"identical", []interval{{120, 180}, {120, 180}}, 40},
		{"child outside parent", []interval{{50, 90}, {210, 260}}, 100},
		{"child straddling both ends", []interval{{50, 260}}, 0},
		{"overlaps sum past parent", []interval{{100, 180}, {120, 200}, {100, 200}}, 0},
	} {
		got := selfTime(p, tc.children)
		if got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
		if got < 0 {
			t.Errorf("%s: negative self time %d", tc.name, got)
		}
	}
	if got := selfTime(interval{5, 5}, []interval{{0, 10}}); got != 0 {
		t.Errorf("empty parent: self = %d, want 0", got)
	}
}

func TestRatioBase(t *testing.T) {
	if got := (ratio{num: 3, base: 4}).value(); got != 0.75 {
		t.Errorf("3/4 = %v", got)
	}
	if got := (ratio{num: 0, base: 0}).value(); got != 0 {
		t.Errorf("empty base = %v, want 0", got)
	}
	r := ratio{num: 5, base: 5}
	if r.value() != 1 || r.base != 5 {
		t.Errorf("ratio keeps its base: %+v", r)
	}
}

func TestReduceWindowsAndFailures(t *testing.T) {
	base := time.Unix(0, 0)
	recs := make([]record, 2500)
	for i := range recs {
		r := &recs[i]
		r.due = base.Add(time.Duration(i) * time.Millisecond)
		r.sent = r.due.Add(10 * time.Microsecond)
		r.end = r.due.Add(2 * time.Millisecond)
		r.status = 200
	}
	// 20 failures, all in the first window: they dominate its tail, and a
	// refused request counts although it never got an answer.
	for i := 0; i < 20; i++ {
		recs[i*10].status = 503
	}
	ps := reduce(recs, true)
	if got := len(ps.tailWindows(99)); got != 2 {
		t.Fatalf("%d p99 windows for 2500 samples, want 2", got)
	}
	if got := len(ps.tailWindows(95)); got != 12 {
		t.Errorf("%d p95 windows for 2500 samples, want 12", got)
	}
	if ps.lat.attempted() != 2500 || ps.lat.failed != 20 || ps.serverErrors != 20 {
		t.Errorf("attempted %d failed %d 5xx %d, want 2500, 20, 20", ps.lat.attempted(), ps.lat.failed, ps.serverErrors)
	}
	w := ps.tailWindows(99)
	if !math.IsInf(w[0], 1) || w[1] != 2 {
		t.Errorf("p99 by window = %v, want [+Inf 2]", w)
	}
	// Nearest rank takes the lower of two: one bad window cannot set the
	// run's tail alone.
	if got := ps.tail(99); got != 2 {
		t.Errorf("tail(99) = %v, want 2", got)
	}
	if got := capped(math.Inf(1)); got != ms(requestTimeout) {
		t.Errorf("capped(+Inf) = %v, want the request timeout", got)
	}
	if got := median(ps.lagMS); got != 0.01 {
		t.Errorf("lag median = %v ms, want 0.01", got)
	}
	closed := reduce(recs[1000:1001], false)
	if got := closed.lat.percentile(50); got != 1.99 {
		t.Errorf("closed-loop latency = %v ms, want end minus sent, 1.99", got)
	}
}
