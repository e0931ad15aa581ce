package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// traceParam carries a traced request's id from the benchmark client through
// the router to the shard. The router forwards the query string verbatim and
// the server reads only as_of from it, so the parameter changes nothing but
// the request line. Untraced requests carry no parameter.
const traceParam = "bt"

// Span names, one per layer boundary the benchmark wraps, outermost first.
// A span's parent is the nearest span of an outer layer on the same request:
// a shard's serve span hangs off a router try when the request was routed
// and off the client request when it was sent direct.
const (
	spanRequest = "bench.request" // client: send to body read
	spanRoute   = "cluster.route" // wrapper handler around *cluster.Router
	spanTry     = "cluster.try"   // RoundTripper passed as cluster.Options.Client
	spanServe   = "server.serve"  // wrapper handler around *server.Server
)

var spanLevel = map[string]int{spanRequest: 0, spanRoute: 1, spanTry: 2, spanServe: 3}

type span struct {
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing; untraced runs install no wrappers at all.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) record(name, op string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Req: req, Name: name, Op: op,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as one JSON object per line, with its
// parent's layer name, so a reader can rebuild each request's tree by id.
func writeSpans(path string, spans []linkedSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceID returns the request's trace id, or false when it is untraced.
func traceID(rawQuery string) (int64, bool) {
	if !strings.Contains(rawQuery, traceParam+"=") {
		return 0, false
	}
	for _, kv := range strings.Split(rawQuery, "&") {
		if v, ok := strings.CutPrefix(kv, traceParam+"="); ok {
			id, err := strconv.ParseInt(v, 10, 64)
			return id, err == nil
		}
	}
	return 0, false
}

// opOf names the operation of a /v1/{dataset}/{op} path.
func opOf(path string) string {
	path, _, _ = strings.Cut(path, "?")
	return path[strings.LastIndexByte(path, '/')+1:]
}

// wrapHandler records name spans around h for traced requests.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := traceID(r.URL.RawQuery)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, opOf(r.URL.Path), id, start, time.Now())
	})
}

// tracingTransport records a cluster.try span per proxied shard attempt,
// from the request until the router closes the response body, so the span
// covers the whole relay read.
type tracingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := traceID(r.URL.RawQuery)
	if !ok {
		return tt.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.record(spanTry, opOf(r.URL.Path), id, start, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.record(spanTry, opOf(r.URL.Path), id, start, time.Now())
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

type linkedSpan struct {
	span
	Parent string `json:"parent,omitempty"`
	// SelfNS is the span minus the union of its children.
	SelfNS int64 `json:"self_ns"`
}

// linkSpans groups spans by request, gives each its parent and its self
// time: the span minus the union of its children's intervals. A span's
// parent is, among the spans of the nearest outer layer present on the
// request, the one that started last at or before it: with concurrent
// tries each shard span belongs to the try that reached its shard.
func linkSpans(spans []span) []linkedSpan {
	byReq := map[int64][]int{}
	for i, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	out := make([]linkedSpan, len(spans))
	children := make([][]interval, len(spans))
	for _, group := range byReq {
		present := map[int]bool{}
		for _, i := range group {
			present[spanLevel[spans[i].Name]] = true
		}
		for _, c := range group {
			outer := -1
			for l := spanLevel[spans[c].Name] - 1; l >= 0 && outer < 0; l-- {
				if present[l] {
					outer = l
				}
			}
			out[c].span = spans[c]
			parent := -1
			for _, p := range group {
				if spanLevel[spans[p].Name] != outer {
					continue
				}
				if parent < 0 || startedLater(spans[p], spans[parent], spans[c].Start) {
					parent = p
				}
			}
			if parent >= 0 {
				out[c].Parent = spans[parent].Name
				children[parent] = append(children[parent], interval{spans[c].Start, spans[c].End})
			}
		}
	}
	for i := range out {
		out[i].SelfNS = selfTime(interval{spans[i].Start, spans[i].End}, children[i])
	}
	return out
}

// startedLater reports whether a is a better parent than b for a child
// starting at t: one that started at or before t beats one that did not,
// and among those the later start wins.
func startedLater(a, b span, t int64) bool {
	if (a.Start <= t) != (b.Start <= t) {
		return a.Start <= t
	}
	if a.Start <= t {
		return a.Start > b.Start
	}
	return a.Start < b.Start
}

// selfMS collects the self times, in milliseconds, of the spans named name
// on operation op.
func selfMS(spans []linkedSpan, name, op string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && s.Op == op {
			xs = append(xs, float64(s.SelfNS)/1e6)
		}
	}
	return xs
}

// countSpans counts the spans named name on operation op.
func countSpans(spans []linkedSpan, name, op string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name && s.Op == op {
			n++
		}
	}
	return n
}
