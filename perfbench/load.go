package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// record is one benchmark operation's outcome. Latency in an open loop is
// end minus due, so a stall is charged to every request it delays; lag is
// sent minus due, how late the generator itself was.
type record struct {
	due, sent, end time.Time
	status         int
	err            error
	traced         bool
	path           string
	body           []byte // response body, kept only for sampled requests
}

func (r *record) ok() bool { return r.err == nil && r.status == http.StatusOK }

// op is one rendered request: a path (with any query string) and a body.
type op struct {
	path string
	body []byte
}

// waitUntil returns at t, to within microseconds. An open loop timed from
// due time charges any generator lateness to the server, so the wait is in
// three stages:
//   - time.Sleep until sleepMargin before t: Go timers on Linux wake up to
//     a millisecond late;
//   - nanosleep(2) in napStep steps until spinMargin before t: it blocks
//     only this thread, so the processor stays free for the in-process
//     servers and the network poller;
//   - runtime.Gosched until t: yielding keeps runnable goroutines going,
//     but a processor spinning on it never polls the network, so the spin
//     is kept to the last few microseconds.
const (
	sleepMargin = 1500 * time.Microsecond
	spinMargin  = 80 * time.Microsecond
	napStep     = 20 * time.Microsecond
)

func waitUntil(t time.Time) {
	nap := syscall.NsecToTimespec(napStep.Nanoseconds())
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > sleepMargin:
			time.Sleep(d - sleepMargin)
		case d > spinMargin:
			// An interrupted nap just loops; its error carries nothing.
			_ = syscall.Nanosleep(&nap, nil)
		default:
			runtime.Gosched()
		}
	}
}

// withTrace appends the trace parameter for request id.
func withTrace(path string, id int64) string {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + traceParam + "=" + strconv.FormatInt(id, 10)
}

// openLoop sends n requests due at start + i·interval from at most senders
// goroutines (sender k owns requests k, k+senders, ...), whatever the
// replies take. mk renders request i at its due time; traced(i) marks it
// for tracing under id ids+i; keep(i) keeps its response body; done, when
// non-nil, sees each record as it completes. It returns once every
// request ended.
func openLoop(c *client, start time.Time, interval time.Duration, n, senders int, ids int64,
	mk func(i int) op, traced, keep func(i int) bool, done func(i int, r *record)) []record {
	recs := make([]record, n)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += senders {
				r := &recs[i]
				r.due = start.Add(time.Duration(i) * interval)
				waitUntil(r.due)
				o := mk(i)
				r.path = o.path
				r.traced = traced(i)
				if r.traced {
					o.path = withTrace(o.path, ids+int64(i))
				}
				r.sent = time.Now()
				r.status, r.body, r.err = c.post(o.path, o.body)
				r.end = time.Now()
				if !keep(i) {
					r.body = nil
				}
				if done != nil {
					done(i, r)
				}
			}
		}(k)
	}
	wg.Wait()
	return recs
}

// closedTally is the outcome counts of closed-loop windows, with each
// window's rate of OK replies.
type closedTally struct {
	ok, failed, serverErrors int
	rates                    []float64
}

// capacity is the median window rate: a burst of outside load on the
// machine moves one window, not the median.
func (t closedTally) capacity() float64 { return median(t.rates) }

// closedLoop runs clients goroutines, each sending its next request as soon
// as the previous one returns, for d, and adds the window to t. mk renders
// client k's j-th request.
func (t *closedTally) closedLoop(c *client, clients int, d time.Duration, mk func(k, j int) op) {
	type tally struct{ ok, failed, s5xx int }
	tallies := make([]tally, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t := &tallies[k]
			for j := 0; time.Now().Before(deadline); j++ {
				o := mk(k, j)
				status, err := c.postDiscard(o.path, o.body)
				switch {
				case err == nil && status == http.StatusOK:
					t.ok++
				default:
					t.failed++
					if status >= 500 {
						t.s5xx++
					}
				}
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ok := 0
	for _, w := range tallies {
		ok += w.ok
		t.failed += w.failed
		t.serverErrors += w.s5xx
	}
	t.ok += ok
	t.rates = append(t.rates, float64(ok)/elapsed.Seconds())
}

// postDiscard sends a request and drains the reply without keeping it.
func (c *client) postDiscard(path string, body []byte) (int, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, cerr
}

// phaseStats is one phase's latency and lag samples.
type phaseStats struct {
	lat          *latencies // in due order
	lagMS        []float64
	tracedMS     []float64
	untracedMS   []float64
	serverErrors int
}

// windowSize is the fewest samples that leave minBeyond beyond the p-th
// percentile: 1000 for p99, 200 for p95.
func windowSize(p float64) int {
	return int(math.Ceil(minBeyond / (1 - p/100) * (1 - 1e-9)))
}

// tailWindows splits the samples, in due order, into consecutive windows of
// at least windowSize(p) samples and returns each window's p-th
// percentile; one window when there are too few samples for two.
func (ps phaseStats) tailWindows(p float64) []float64 {
	xs := ps.lat.xs
	nw := max(1, len(xs)/windowSize(p))
	out := make([]float64, nw)
	for w := range out {
		out[w] = percentile(xs[w*len(xs)/nw:(w+1)*len(xs)/nw], p)
	}
	return out
}

// tail is the median over windows of each window's p-th percentile. A
// burst of outside load on the machine lands in a few windows; the median
// keeps them from setting the whole run's tail.
func (ps phaseStats) tail(p float64) float64 { return median(ps.tailWindows(p)) }

// reduce turns records into phaseStats. fromDue selects open-loop timing
// (end − due) over closed-loop timing (end − sent).
func reduce(recs []record, fromDue bool) phaseStats {
	ps := phaseStats{lat: newLatencies(len(recs)), lagMS: make([]float64, 0, len(recs))}
	for i := range recs {
		r := &recs[i]
		ps.lagMS = append(ps.lagMS, ms(r.sent.Sub(r.due)))
		if r.status >= 500 {
			ps.serverErrors++
		}
		if !r.ok() {
			ps.lat.fail()
			continue
		}
		from := r.sent
		if fromDue {
			from = r.due
		}
		d := r.end.Sub(from)
		ps.lat.ok(d)
		if r.traced {
			ps.tracedMS = append(ps.tracedMS, ms(d))
		} else {
			ps.untracedMS = append(ps.untracedMS, ms(d))
		}
	}
	return ps
}
