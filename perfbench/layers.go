package main

import (
	"sync"
	"time"

	"sourcecurrents/internal/server"
)

// serverProbe brackets a load phase on a set of shards: /metrics counters
// and registry residency before and after, plus the largest resident
// count seen while the load ran.
type serverProbe struct {
	shards  []*shard
	before  map[string]float64
	res0    server.ResidencyStats
	mu      sync.Mutex
	maxRes  int
	stop    chan struct{}
	stopped sync.WaitGroup
}

func residency(shards []*shard) (sum server.ResidencyStats, maxResident int) {
	for _, sh := range shards {
		r := sh.reg.Residency()
		sum.Loads += r.Loads
		sum.Evictions += r.Evictions
		sum.Resident += r.Resident
		maxResident = max(maxResident, r.Resident)
	}
	return sum, maxResident
}

func startServerProbe(shards []*shard) (*serverProbe, error) {
	p := &serverProbe{shards: shards, stop: make(chan struct{})}
	var err error
	if p.before, err = scrapeAll(shardAddrs(shards)); err != nil {
		return nil, err
	}
	p.res0, p.maxRes = residency(shards)
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				_, m := residency(shards)
				p.mu.Lock()
				p.maxRes = max(p.maxRes, m)
				p.mu.Unlock()
			}
		}
	}()
	return p, nil
}

func shardAddrs(shards []*shard) []string {
	out := make([]string, len(shards))
	for i, sh := range shards {
		out[i] = sh.addr
	}
	return out
}

// serverDeltas is what the shards did between start and finish.
type serverDeltas struct {
	hits, misses, coalesced, swaps int64
	loads, evictions               int64
	residentMax, residentQuiescent int
}

func (p *serverProbe) finish() (serverDeltas, error) {
	close(p.stop)
	p.stopped.Wait()
	after, err := scrapeAll(shardAddrs(p.shards))
	if err != nil {
		return serverDeltas{}, err
	}
	delta := func(name string) int64 { return int64(after[name] - p.before[name]) }
	res1, quiescent := residency(p.shards)
	return serverDeltas{
		hits:              delta("currents_answer_cache_hits_total"),
		misses:            delta("currents_answer_cache_misses_total"),
		coalesced:         delta("currents_answer_coalesced_total"),
		swaps:             delta("currents_dataset_swaps_total"),
		loads:             res1.Loads - p.res0.Loads,
		evictions:         res1.Evictions - p.res0.Evictions,
		residentMax:       max(p.maxRes, quiescent),
		residentQuiescent: quiescent,
	}, nil
}

func (d serverDeltas) report(rep *report) {
	hit := ratio{num: d.hits, base: d.hits + d.misses}
	rep.setN("server.cache_hit_ratio", hit.value(), "ratio", int(hit.base))
	rep.set("server.coalesced", float64(d.coalesced), "count")
	rep.set("server.world_loads", float64(d.loads), "count")
	rep.set("server.world_evictions", float64(d.evictions), "count")
	rep.set("server.resident_max", float64(d.residentMax), "count")
	rep.set("server.resident_quiescent", float64(d.residentQuiescent), "count")
	rep.set("server.swaps", float64(d.swaps), "count")
}

// routerCounters reads the router retry and hedge totals.
func routerCounters(addr string) (retries, hedges float64, err error) {
	c := newClient(addr, 1)
	defer c.close()
	m, err := c.scrape()
	if err != nil {
		return 0, 0, err
	}
	return m["currents_router_retries_total"], m["currents_router_hedged_requests_total"], nil
}

// spanLayers reports the client and shard spans of a traced run.
func spanLayers(rep *report, spans []linkedSpan) {
	req := totalMS(spans, spanRequest, "answer")
	rep.setN("bench.request_ms", median(req), "ms", len(req))
	serve := selfMS(spans, spanServe, "answer")
	rep.setN("server.serve_ms", median(serve), "ms", len(serve))
	appends := selfMS(spans, spanServe, "append")
	rep.setN("server.serve_append_ms", median(appends), "ms", len(appends))
}

// routeLayers reports the router hop from spans.
func routeLayers(rep *report, spans []linkedSpan, retries, hedges float64) {
	route := selfMS(spans, spanRoute, "answer")
	rep.setN("cluster.route_self_ms", median(route), "ms", len(route))
	tries := ratio{num: int64(countSpans(spans, spanTry, "answer")), base: int64(len(route))}
	rep.setN("cluster.tries_per_read", tries.value(), "count", int(tries.base))
	rep.set("cluster.retries", retries, "count")
	rep.set("cluster.hedges", hedges, "count")
}

// totalMS returns whole span durations in milliseconds. The client span is
// reported whole: it is what a caller waits.
func totalMS(spans []linkedSpan, name, op string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && s.Op == op {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return xs
}
