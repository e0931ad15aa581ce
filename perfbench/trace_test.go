package main

import "testing"

func TestLinkSpans(t *testing.T) {
	spans := []span{
		// Routed read 1: a try hedged by a second, overlapping one.
		{Req: 1, Name: spanRequest, Op: "answer", Start: 0, End: 100},
		{Req: 1, Name: spanRoute, Op: "answer", Start: 10, End: 90},
		{Req: 1, Name: spanTry, Op: "answer", Start: 20, End: 60},
		{Req: 1, Name: spanTry, Op: "answer", Start: 40, End: 80},
		{Req: 1, Name: spanServe, Op: "answer", Start: 25, End: 55},
		// Direct read 2: the shard span hangs off the client span.
		{Req: 2, Name: spanRequest, Op: "answer", Start: 200, End: 250},
		{Req: 2, Name: spanServe, Op: "answer", Start: 210, End: 240},
	}
	// Keyed by request and layer; the second try overwrites the first and
	// is checked on its own below.
	byKey := map[[2]int64]linkedSpan{}
	for _, s := range linkSpans(spans) {
		byKey[[2]int64{s.Req, int64(spanLevel[s.Name])}] = s
		if s.SelfNS < 0 {
			t.Errorf("%s on %d: negative self time %d", s.Name, s.Req, s.SelfNS)
		}
	}
	for _, tc := range []struct {
		req    int64
		name   string
		parent string
		self   int64
	}{
		{1, spanRequest, "", 20},
		{1, spanRoute, spanRequest, 20}, // 80 minus the union [20, 80)
		{1, spanTry, spanRoute, 40},     // second try: no shard span began in it
		{1, spanServe, spanTry, 30},
		{2, spanRequest, "", 20},
		{2, spanServe, spanRequest, 30},
	} {
		got, ok := byKey[[2]int64{tc.req, int64(spanLevel[tc.name])}]
		if !ok {
			t.Errorf("%s on %d missing", tc.name, tc.req)
			continue
		}
		if got.Parent != tc.parent {
			t.Errorf("%s on %d: parent %q, want %q", tc.name, tc.req, got.Parent, tc.parent)
		}
		if got.SelfNS != tc.self {
			t.Errorf("%s on %d: self %d, want %d", tc.name, tc.req, got.SelfNS, tc.self)
		}
	}
	// The serve span began during the first try only, so only that try's
	// self time excludes it, whichever order the tries are listed in.
	for _, order := range [][]span{spans, {spans[3], spans[2], spans[4], spans[1], spans[0]}} {
		selves := map[int64]int64{}
		for _, s := range linkSpans(order) {
			if s.Name == spanTry {
				selves[s.Start] = s.SelfNS
			}
		}
		if selves[20] != 10 || selves[40] != 40 {
			t.Errorf("try self times by start %v, want 20:10 and 40:40", selves)
		}
	}
}

func TestTraceID(t *testing.T) {
	for _, tc := range []struct {
		query string
		id    int64
		ok    bool
	}{
		{"", 0, false},
		{"as_of=3", 0, false},
		{traceParam + "=42", 42, true},
		{"as_of=3&" + traceParam + "=7", 7, true},
		{traceParam + "=x", 0, false},
	} {
		id, ok := traceID(tc.query)
		if id != tc.id || ok != tc.ok {
			t.Errorf("traceID(%q) = %d, %v; want %d, %v", tc.query, id, ok, tc.id, tc.ok)
		}
	}
	if got := withTrace("/v1/d/answer?as_of=2", 9); got != "/v1/d/answer?as_of=2&"+traceParam+"=9" {
		t.Errorf("withTrace = %q", got)
	}
	if got := opOf("/v1/d/answer?as_of=2"); got != "answer" {
		t.Errorf("opOf = %q, want answer", got)
	}
}
