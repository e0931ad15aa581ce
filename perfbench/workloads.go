package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"sourcecurrents/internal/eval"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// World sizes. The miss world is wide enough that a 5-object answer costs
// the planner over a millisecond, so planning and encoding dominate a miss.
// The hot and ingest worlds are smaller: a hit costs the same at any size,
// and a small world keeps the K-world set-up and the per-batch refine
// short. Coverage is dense enough (every source holds at least half the
// objects of its world) that copy detection rarely flags an independent
// pair, which keeps copy_f1 close from seed to seed.
var (
	missSpec = worldSpec{Sources: 150, Objects: 75, Copiers: 20, FalseValues: 100,
		CoverageMax: 0.9, CoverageMin: 0.6, CoverageTail: 0.5}
	smallSpec = worldSpec{Sources: 100, Objects: 100, Copiers: 20, FalseValues: 100,
		CoverageMax: 0.9, CoverageMin: 0.5, CoverageTail: 0.5}
)

// Traffic shape. Rates are offered loads well under each workload's
// closed-loop capacity on two cores, so the open loop measures latency
// rather than a growing queue; every count is a stated choice, not a
// measured production mix. The miss rate leaves several service times
// between arrivals: at twice the rate a slow miss often overlapped the
// next one, and read_p95_ms fell on the border between overlapped and
// lone requests, moving by a quarter from run to run.
const (
	missRate        = 150.0 // reads/s
	hotRate         = 1000.0
	ingestReadRate  = 600.0
	hotWorlds       = 4
	hotMaxResident  = 2 // below hotWorlds, so the registry evicts and remaps
	hotQueries      = 48
	hotZipfS        = 1.1
	ingestHotSet    = 8
	ingestAsOfEvery = 4 // every 4th ingest read is sent ?as_of= a retained epoch
	appendsPerRun   = 210
	appendBatch     = 12
	newSourceEvery  = 10
	evalQueryCount  = 40
	checkSamples    = 200 // sampled read bodies checked per run
	startDelay      = 50 * time.Millisecond
)

// Trace id ranges: open-loop reads, appends, and the router replay of the
// direct workloads.
const (
	readIDs   int64 = 0
	appendIDs int64 = 1 << 40
	replayIDs int64 = 2 << 40
)

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// perSecond is the interval between requests at rate per second.
func perSecond(rate float64) time.Duration { return seconds(1 / rate) }

func every(k int) func(int) bool {
	return func(i int) bool { return i%k == 0 }
}

// tracedHalf traces every odd request in a traced run, so the even ones
// give the untraced latency of the same phase.
func tracedHalf(trace bool) func(int) bool {
	return func(i int) bool { return trace && i%2 == 1 }
}

func never(int) bool { return false }

// readSegments is how many open-loop segments and closed-loop windows a
// read phase alternates between. Machine speed on a shared host drifts by
// some ten percent over seconds; alternating spreads the latency samples
// and the capacity windows over the whole run instead of giving one the
// first half and the other the second.
const readSegments = 10

// readPhase alternates readSegments open-loop segments, n requests at rate
// in all, with as many closed-loop windows of closedDur in all.
func readPhase(c *client, senders, n int, rate float64, closedDur time.Duration, trace bool,
	mk func(i int) op, keep func(i int) bool, closed func(k, j int) op) ([]record, closedTally) {
	var recs []record
	var tally closedTally
	traced := tracedHalf(trace)
	for s := 0; s < readSegments; s++ {
		lo, hi := s*n/readSegments, (s+1)*n/readSegments
		recs = append(recs, openLoop(c, time.Now().Add(startDelay), perSecond(rate), hi-lo, senders, readIDs+int64(lo),
			func(i int) op { return mk(lo + i) },
			func(i int) bool { return traced(lo + i) },
			func(i int) bool { return keep(lo + i) }, nil)...)
		tally.closedLoop(c, senders, closedDur/readSegments, closed)
	}
	return recs, tally
}

// directStack is one shard serving one world built from claims.
type directStack struct {
	sess *session.Session // the registered epoch-0 session
	sh   *shard
	c    *client
}

func buildDirect(claims []model.Claim, name, dir string, tr *tracer, conns int, first []byte) (*directStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := frozen(claims)
	if err != nil {
		return nil, err
	}
	s, err := session.New(d, sessionConfig())
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if err := reg.Register(name, s); err != nil {
		return nil, err
	}
	sh, err := startShard(reg, dir, tr)
	if err != nil {
		return nil, err
	}
	st := &directStack{sess: s, sh: sh, c: newClient(sh.addr, conns)}
	if err := firstAnswer(st.c, "/v1/"+name+"/answer", first); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *directStack) close() error {
	st.c.close()
	return st.sh.close()
}

// appendOps renders a batch chain as append requests.
func appendOps(path string, batches [][]model.Claim) []op {
	ops := make([]op, len(batches))
	for i, b := range batches {
		ops[i] = op{path, appendBody(b)}
	}
	return ops
}

// serialAppends posts batches one after another, each as soon as the
// previous one is acknowledged; latency is end minus send.
func serialAppends(c *client, ops []op, trace bool) []record {
	return openLoop(c, time.Now(), 0, len(ops), 1, appendIDs,
		func(i int) op { return ops[i] }, tracedHalf(trace), never, nil)
}

func acked(recs []record) int {
	n := 0
	for i := range recs {
		if recs[i].ok() {
			n++
		}
	}
	return n
}

// checkEpoch requires a dataset's epoch on reg to equal the acknowledged
// appends.
func checkEpoch(rep *report, reg *server.Registry, name string, want int) {
	_, epoch, release, err := reg.Acquire(name)
	if err != nil {
		rep.fail("final epoch of %s: %v", name, err)
		return
	}
	release()
	if epoch != uint64(want) {
		rep.fail("%s: final epoch %d, but %d appends were acknowledged", name, epoch, want)
	}
}

// traceLayers finishes a traced run: client spans from the records, then
// every span-derived metric.
func traceLayers(rep *report, tr *tracer, cfg *runConfig, ps phaseStats, recs ...[]record) []linkedSpan {
	for _, rs := range recs {
		for i := range rs {
			if r := &rs[i]; r.traced {
				id := readIDs + int64(i)
				if opOf(r.path) == "append" {
					id = appendIDs + int64(i)
				}
				tr.record(spanRequest, opOf(r.path), id, r.sent, r.end)
			}
		}
	}
	spans := linkSpans(tr.snapshot())
	path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		rep.flag("writing spans: %v", err)
	} else {
		rep.info["spans_file"] = path
	}
	var live []linkedSpan
	for _, s := range spans {
		if s.Req < replayIDs {
			live = append(live, s)
		}
	}
	spanLayers(rep, live)
	rep.setN("bench.gen_lag_ms", median(ps.lagMS), "ms", len(ps.lagMS))
	rep.setN("bench.read_p50_traced_ms", median(ps.tracedMS), "ms", len(ps.tracedMS))
	rep.setN("bench.read_p50_untraced_ms", median(ps.untracedMS), "ms", len(ps.untracedMS))
	return live
}

// routerReplay measures the router hop for a direct workload: the sampled
// reads are replayed one by one through a one-shard router in front of
// the workload's shard.
func routerReplay(rep *report, tr *tracer, sh *shard, ops []op) error {
	f, err := startRouter([]string{sh.addr}, tr)
	if err != nil {
		return err
	}
	defer f.close()
	c := newClient(f.addr, 1)
	defer c.close()
	r0, h0, err := routerCounters(f.addr)
	if err != nil {
		return err
	}
	for i, o := range ops {
		status, body, err := c.post(withTrace(o.path, replayIDs+int64(i)), o.body)
		if err != nil || status != 200 {
			return fmt.Errorf("router replay: status %d: %v %s", status, err, body)
		}
	}
	r1, h1, err := routerCounters(f.addr)
	if err != nil {
		return err
	}
	var spans []linkedSpan
	for _, s := range linkSpans(tr.snapshot()) {
		if s.Req >= replayIDs {
			spans = append(spans, s)
		}
	}
	routeLayers(rep, spans, r1-r0, h1-h0)
	return nil
}

// writeLayersReplay times the write path by replaying the batch chain.
func writeLayersReplay(rep *report, claims []model.Claim, batches [][]model.Claim, dir string) error {
	var wl writeLayers
	if err := replayChain(claims, batches, true, dir, func(s chainStep) error {
		wl.add(s)
		return nil
	}); err != nil {
		return err
	}
	wl.report(rep)
	return nil
}

// finishWrites reports what the write path did: compactions (counted from
// the server's log hook) and disk bytes per claim.
func finishWrites(rep *report, shards []*shard, diskBytes int64, claims int) {
	var n int64
	for _, sh := range shards {
		n += sh.compactions.Load()
	}
	rep.set("server.compactions", float64(n), "count")
	rep.setN("server.disk_bytes_per_claim", float64(diskBytes)/float64(claims), "B", claims)
}

func totalClaims(claims []model.Claim, batches [][]model.Claim) int {
	n := len(claims)
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// runMiss: one direct shard, distinct queries that (almost) never hit the
// answer cache, so the planner and the encoder do the work.
func runMiss(cfg *runConfig, rep *report) error {
	const name = "miss"
	path := "/v1/" + name + "/answer"
	w := genWorld(name, missSpec, rand.New(rand.NewSource(cfg.seed)))
	qrng := rand.New(rand.NewSource(cfg.seed + 1))
	evalQs := evalQueries(w, qrng, evalQueryCount)
	first := answerBody(w.randomQuery(qrng, queryWidth))
	batches := w.appendBatches(rand.New(rand.NewSource(cfg.seed+2)), appendsPerRun, appendBatch, newSourceEvery, missSpec.FalseValues)
	n := int(missRate * 0.5 * cfg.seconds)
	reads := make([]op, n)
	for i := range reads {
		reads[i] = op{path, answerBody(w.randomQuery(qrng, queryWidth))}
	}
	closedRngs := make([]*rand.Rand, cfg.nproc)
	for k := range closedRngs {
		closedRngs[k] = rand.New(rand.NewSource(cfg.seed*1000 + int64(k)))
	}
	rep.info["worlds"] = []coverageStats{w.stats()}
	rep.info["load"] = map[string]any{"open_rate_per_s": missRate, "open_reads": n, "senders": cfg.nproc,
		"closed_clients": cfg.nproc, "closed_seconds": 0.25 * cfg.seconds, "appends": len(batches), "append_batch": appendBatch}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setup, err := measureSetup(func(i int) (*directStack, error) {
		return buildDirect(w.claims, name, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), tr, cfg.nproc, first)
	}, (*directStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	rep.setN("setup_s", median(setup), "s", len(setup))
	hits, total, err := answerHits(st.c, path, w, evalQs)
	if err != nil {
		return err
	}
	setQuality(rep, hits, total, eval.PairPRF(copyVerdicts(st.sess.Dependence()), w.copiers))

	var probe *serverProbe
	if cfg.trace {
		if probe, err = startServerProbe([]*shard{st.sh}); err != nil {
			return err
		}
	}
	recs, tally := readPhase(st.c, cfg.nproc, n, missRate, seconds(0.25*cfg.seconds), cfg.trace,
		func(i int) op { return reads[i] }, every(max(1, n/checkSamples)),
		func(k, j int) op { return op{path, answerBody(w.randomQuery(closedRngs[k], queryWidth))} })
	ps := reduce(recs, true)
	setReads(rep, ps, tally)

	// Every sampled body must equal the in-process answer at epoch 0: no
	// append has been sent yet.
	var rs replayStats
	var sampled []op
	for i := range recs {
		if recs[i].body != nil && recs[i].ok() {
			checkAnswer(rep, &rs, st.sess, fmt.Sprintf("read %d", i), reads[i].body, recs[i].body)
			sampled = append(sampled, reads[i])
		}
	}
	rs.report(rep)

	arecs := serialAppends(st.c, appendOps("/v1/"+name+"/append", batches), cfg.trace)
	setAppends(rep, reduce(arecs, false))
	checkEpoch(rep, st.sh.reg, name, acked(arecs))
	disk, err := setFootprint(rep, []string{st.sh.dir})
	if err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	deltas, err := probe.finish()
	if err != nil {
		return err
	}
	deltas.report(rep)
	traceLayers(rep, tr, cfg, ps, recs, arecs)
	finishWrites(rep, []*shard{st.sh}, disk, totalClaims(w.claims, batches))
	if err := routerReplay(rep, tr, st.sh, sampled); err != nil {
		return err
	}
	if err := asOfServed(rep, st.sh.reg, name); err != nil {
		return err
	}
	if err := ladder(rep, w.claims, cfg.workDir); err != nil {
		return err
	}
	return writeLayersReplay(rep, w.claims, batches, cfg.workDir)
}

// asOfServed times ResolveAsOf against the served session's retained
// epochs.
func asOfServed(rep *report, reg *server.Registry, name string) error {
	sess, _, release, err := reg.Acquire(name)
	if err != nil {
		return err
	}
	defer release()
	return asOfReplay(rep, sess)
}

// hotStack is two shards, each lazily mapping every world from v2
// snapshots under a resident bound, behind a router at rf 2.
type hotStack struct {
	shards []*shard
	f      *fleet
	c      *client
}

func (st *hotStack) close() error {
	st.c.close()
	err := st.f.close()
	for _, sh := range st.shards {
		if e := sh.close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

func buildHot(worlds []*world, dir string, tr *tracer, conns int, first []byte) (*hotStack, error) {
	cfg := sessionConfig()
	dirs := []string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	for _, w := range worlds {
		d, err := frozen(w.claims)
		if err != nil {
			return nil, err
		}
		s, err := session.New(d, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := s.WriteSnapshotV2(&buf); err != nil {
			return nil, err
		}
		for _, dd := range dirs {
			if err := os.WriteFile(filepath.Join(dd, w.name+".snap"), buf.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
	}
	st := &hotStack{}
	fail := func(err error) (*hotStack, error) {
		for _, sh := range st.shards {
			sh.close()
		}
		return nil, err
	}
	for _, d := range dirs {
		reg, err := server.LoadDir(d, cfg, nil)
		if err != nil {
			return fail(err)
		}
		reg.SetMaxResident(hotMaxResident)
		sh, err := startShard(reg, d, tr)
		if err != nil {
			return fail(err)
		}
		st.shards = append(st.shards, sh)
	}
	f, err := startRouter(shardAddrs(st.shards), tr)
	if err != nil {
		return fail(err)
	}
	st.f = f
	st.c = newClient(f.addr, conns)
	if err := firstAnswer(st.c, "/v1/"+worlds[0].name+"/answer", first); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// runHot: a router at rf 2 over two shards that each map hotWorlds worlds
// under a resident bound of hotMaxResident; Zipf draws over a warmed
// (world, query) set that fits in the answer cache, so the router hop, the
// cache hit path and registry acquire / lazy map / evict do the work.
func runHot(cfg *runConfig, rep *report) error {
	worlds := make([]*world, hotWorlds)
	var stats []coverageStats
	for k := range worlds {
		worlds[k] = genWorld("h"+strconv.Itoa(k), smallSpec, rand.New(rand.NewSource(cfg.seed*100+int64(k))))
		stats = append(stats, worlds[k].stats())
	}
	qrng := rand.New(rand.NewSource(cfg.seed + 1))
	type item struct {
		world int
		op    op
	}
	var items []item
	evalQs := make([][][]model.ObjectID, hotWorlds)
	for k, w := range worlds {
		evalQs[k] = evalQueries(w, qrng, evalQueryCount/hotWorlds)
		for j := 0; j < hotQueries; j++ {
			items = append(items, item{k, op{"/v1/" + w.name + "/answer", answerBody(w.randomQuery(qrng, queryWidth))}})
		}
	}
	// Zipf rank follows world order, so the worlds are popular in turn:
	// most reads go to the first two and fit the resident bound, and the
	// tail of the distribution keeps mapping and evicting the others.
	first := items[0].op.body
	zipf := func(seed int64) *rand.Zipf {
		return rand.NewZipf(rand.New(rand.NewSource(seed)), hotZipfS, 1, uint64(len(items)-1))
	}
	n := int(hotRate * 0.5 * cfg.seconds)
	draws := make([]int, n)
	z := zipf(cfg.seed + 2)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}
	closedZipf := make([]*rand.Zipf, cfg.nproc)
	for k := range closedZipf {
		closedZipf[k] = zipf(cfg.seed*1000 + int64(k))
	}
	target := worlds[0]
	batches := target.appendBatches(rand.New(rand.NewSource(cfg.seed+3)), appendsPerRun, appendBatch, newSourceEvery, smallSpec.FalseValues)
	rep.info["worlds"] = stats
	rep.info["load"] = map[string]any{"open_rate_per_s": hotRate, "open_reads": n, "senders": cfg.nproc,
		"closed_clients": cfg.nproc, "closed_seconds": 0.25 * cfg.seconds, "appends": len(batches),
		"append_batch": appendBatch, "hot_items": len(items), "zipf_s": hotZipfS}
	rep.info["router_options"] = map[string]any{"rf": routerRF, "hedge_delay": 0, "shards": 2,
		"max_resident": hotMaxResident, "worlds_per_shard": hotWorlds}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setup, err := measureSetup(func(i int) (*hotStack, error) {
		return buildHot(worlds, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), tr, cfg.nproc, first)
	}, (*hotStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	rep.setN("setup_s", median(setup), "s", len(setup))

	// Source names repeat across worlds, so pairs are scored per world
	// under a world prefix and pooled into one F1.
	hits, total := 0, 0
	var detected []model.SourcePair
	planted := map[model.SourcePair]bool{}
	prefixed := func(w *world, p model.SourcePair) model.SourcePair {
		return model.NewSourcePair(model.SourceID(w.name)+"/"+p.A, model.SourceID(w.name)+"/"+p.B)
	}
	for k, w := range worlds {
		h, t, err := answerHits(st.c, "/v1/"+w.name+"/answer", w, evalQs[k])
		if err != nil {
			return err
		}
		hits, total = hits+h, total+t
		// The served verdicts: the v2 snapshot the shards map, loaded the
		// way the registry loads it.
		s, err := session.LoadSnapshotFile(filepath.Join(st.shards[0].dir, w.name+".snap"), sessionConfig())
		if err != nil {
			return err
		}
		for _, p := range copyVerdicts(s.Dependence()) {
			detected = append(detected, prefixed(w, p))
		}
		if err := s.Close(); err != nil {
			return err
		}
		for p := range w.copiers {
			planted[prefixed(w, p)] = true
		}
	}
	prf := eval.PairPRF(detected, planted)
	setQuality(rep, hits, total, prf)

	// Warm every (world, query) item into the answer caches.
	for _, it := range items {
		if err := firstAnswer(st.c, it.op.path, it.op.body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	var probe *serverProbe
	var r0, h0 float64
	if cfg.trace {
		if probe, err = startServerProbe(st.shards); err != nil {
			return err
		}
		if r0, h0, err = routerCounters(st.f.addr); err != nil {
			return err
		}
	}
	recs, tally := readPhase(st.c, cfg.nproc, n, hotRate, seconds(0.25*cfg.seconds), cfg.trace,
		func(i int) op { return items[draws[i]].op }, every(max(1, n/checkSamples)),
		func(k, j int) op { return items[closedZipf[k].Uint64()].op })
	ps := reduce(recs, true)
	setReads(rep, ps, tally)
	var r1, h1 float64
	if cfg.trace {
		if r1, h1, err = routerCounters(st.f.addr); err != nil {
			return err
		}
	}
	_, quiescent := residency(st.shards)
	if quiescent > hotMaxResident {
		rep.flag("resident bound exceeded at quiescence: %d worlds resident on one shard, bound %d", quiescent, hotMaxResident)
	}

	var rs replayStats
	reg := st.shards[0].reg
	for i := range recs {
		if recs[i].body == nil || !recs[i].ok() {
			continue
		}
		it := items[draws[i]]
		sess, epoch, release, err := reg.Acquire(worlds[it.world].name)
		if err != nil {
			return err
		}
		if epoch != 0 {
			rep.fail("%s at epoch %d before any append", worlds[it.world].name, epoch)
		}
		checkAnswer(rep, &rs, sess, fmt.Sprintf("read %d", i), it.op.body, recs[i].body)
		release()
	}
	rs.report(rep)

	arecs := serialAppends(st.c, appendOps("/v1/"+target.name+"/append", batches), cfg.trace)
	setAppends(rep, reduce(arecs, false))
	for _, sh := range st.shards {
		checkEpoch(rep, sh.reg, target.name, acked(arecs))
	}
	disk, err := setFootprint(rep, []string{st.shards[0].dir, st.shards[1].dir})
	if err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	deltas, err := probe.finish()
	if err != nil {
		return err
	}
	deltas.report(rep)
	spans := traceLayers(rep, tr, cfg, ps, recs, arecs)
	routeLayers(rep, spans, r1-r0, h1-h0)
	claims := 0
	for _, w := range worlds {
		claims += len(w.claims)
	}
	finishWrites(rep, st.shards, disk, 2*(claims+totalClaims(nil, batches)))
	if err := asOfServed(rep, reg, target.name); err != nil {
		return err
	}
	if err := ladder(rep, target.claims, cfg.workDir); err != nil {
		return err
	}
	return writeLayersReplay(rep, target.claims, batches, cfg.workDir)
}

// runIngest: one direct shard with durable appends taking a live feed of
// batches at a fixed interval while an open loop reads a small hot query
// set, every ingestAsOfEvery-th read against a retained epoch.
func runIngest(cfg *runConfig, rep *report) error {
	const name = "ingest"
	path := "/v1/" + name + "/answer"
	w := genWorld(name, smallSpec, rand.New(rand.NewSource(cfg.seed)))
	qrng := rand.New(rand.NewSource(cfg.seed + 1))
	evalQs := evalQueries(w, qrng, evalQueryCount)
	hot := make([][]byte, ingestHotSet)
	for i := range hot {
		hot[i] = answerBody(w.randomQuery(qrng, queryWidth))
	}
	batches := w.appendBatches(rand.New(rand.NewSource(cfg.seed+2)), appendsPerRun, appendBatch, newSourceEvery, smallSpec.FalseValues)
	openDur := 0.75 * cfg.seconds
	n := int(ingestReadRate * openDur)
	picks := make([]int, n)
	for i := range picks {
		picks[i] = qrng.Intn(len(hot))
	}
	closedRngs := make([]*rand.Rand, cfg.nproc)
	for k := range closedRngs {
		closedRngs[k] = rand.New(rand.NewSource(cfg.seed*1000 + int64(k)))
	}
	appendEvery := seconds(openDur / float64(len(batches)))
	rep.info["worlds"] = []coverageStats{w.stats()}
	rep.info["load"] = map[string]any{"open_rate_per_s": ingestReadRate, "open_reads": n,
		"read_senders": max(1, cfg.nproc-1), "append_senders": 1, "as_of_share": 1.0 / ingestAsOfEvery,
		"hot_queries": ingestHotSet, "closed_clients": cfg.nproc, "closed_queries": "distinct",
		"closed_seconds": 0.25 * cfg.seconds, "appends": len(batches), "append_batch": appendBatch,
		"append_interval_ms": ms(appendEvery)}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setup, err := measureSetup(func(i int) (*directStack, error) {
		return buildDirect(w.claims, name, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), tr, cfg.nproc, hot[0])
	}, (*directStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	rep.setN("setup_s", median(setup), "s", len(setup))
	hits, total, err := answerHits(st.c, path, w, evalQs)
	if err != nil {
		return err
	}
	setQuality(rep, hits, total, eval.PairPRF(copyVerdicts(st.sess.Dependence()), w.copiers))

	var probe *serverProbe
	if cfg.trace {
		if probe, err = startServerProbe([]*shard{st.sh}); err != nil {
			return err
		}
	}
	// The appender and the readers share one start, and between them use
	// nproc senders and connections. ackedN is what a reader may rely on:
	// an acknowledged append has swapped in.
	var ackedN atomic.Int64
	asOf := make([]int, n) // -1: current epoch
	start := time.Now().Add(startDelay)
	var arecs []record
	appendsDone := make(chan struct{})
	aops := appendOps("/v1/"+name+"/append", batches)
	ac := newClient(st.sh.addr, 1)
	defer ac.close()
	go func() {
		defer close(appendsDone)
		arecs = openLoop(ac, start, appendEvery, len(aops), 1, appendIDs,
			func(i int) op { return aops[i] }, tracedHalf(cfg.trace), never,
			func(i int, r *record) {
				if r.ok() {
					ackedN.Add(1)
				}
			})
	}()
	readers := max(1, cfg.nproc-1)
	rc := newClient(st.sh.addr, readers)
	defer rc.close()
	keep := every(max(1, n/checkSamples))
	recs := openLoop(rc, start, perSecond(ingestReadRate), n, readers, readIDs,
		func(i int) op {
			asOf[i] = -1
			a := int(ackedN.Load())
			if i%ingestAsOfEvery == ingestAsOfEvery-1 && a >= 1 {
				// One or two epochs back: inside the retention window even
				// if further appends land while the read is in flight.
				asOf[i] = max(0, a-1-(i/ingestAsOfEvery)%2)
				return op{path + "?as_of=" + strconv.Itoa(asOf[i]), hot[picks[i]]}
			}
			return op{path, hot[picks[i]]}
		}, tracedHalf(cfg.trace), keep, nil)
	<-appendsDone
	ps := reduce(recs, true)
	aps := reduce(arecs, true)
	setAppends(rep, aps)
	ackedTotal := acked(arecs)
	checkEpoch(rep, st.sh.reg, name, ackedTotal)

	// Capacity is measured once the feed is done, on distinct queries: the
	// planner over the world the feed grew, not the hot set's cache hits.
	var tally closedTally
	for s := 0; s < readSegments; s++ {
		tally.closedLoop(st.c, cfg.nproc, seconds(0.25*cfg.seconds/readSegments), func(k, j int) op {
			return op{path, answerBody(w.randomQuery(closedRngs[k], queryWidth))}
		})
	}
	setReads(rep, ps, tally)
	var deltas serverDeltas
	if cfg.trace {
		if deltas, err = probe.finish(); err != nil {
			return err
		}
	}
	final := make([][]byte, len(hot))
	for i, b := range hot {
		status, body, err := st.c.post(path, b)
		if err != nil || status != 200 {
			return fmt.Errorf("final answer: status %d: %v", status, err)
		}
		final[i] = body
	}
	disk, err := setFootprint(rep, []string{st.sh.dir})
	if err != nil {
		return err
	}

	// Each sampled read was served at one epoch: the as_of one, or for a
	// current read some epoch between the appends acknowledged before it
	// was sent and the appends sent before it returned. Replaying the
	// chain visits every epoch once; each sample must match at one of its
	// candidates.
	type candidate struct {
		i, lo, hi int
		matched   bool
	}
	var cands []*candidate
	for i := range recs {
		r := &recs[i]
		if r.body == nil || !r.ok() {
			continue
		}
		c := &candidate{i: i, lo: asOf[i], hi: asOf[i]}
		if asOf[i] < 0 {
			c.lo, c.hi = 0, 0
			for j := range arecs {
				if arecs[j].ok() && arecs[j].end.Before(r.sent) {
					c.lo++
				}
				if arecs[j].sent.Before(r.end) {
					c.hi = j + 1
				}
			}
		}
		cands = append(cands, c)
	}
	var rs replayStats
	var wl writeLayers
	nBatches := ackedTotal
	if err := replayChain(w.claims, batches[:nBatches], cfg.trace, cfg.workDir, func(s chainStep) error {
		wl.add(s)
		for _, c := range cands {
			if c.matched || s.epoch < c.lo || s.epoch > c.hi {
				continue
			}
			want, probes, ans, enc, err := expectedAnswer(s.sess, hot[picks[c.i]])
			if err != nil {
				return err
			}
			if bytes.Equal(want, recs[c.i].body) {
				c.matched = true
				rs.answerMS = append(rs.answerMS, ms(ans))
				rs.encodeMS = append(rs.encodeMS, ms(enc))
				rs.probes = append(rs.probes, float64(probes))
			}
		}
		if s.epoch == nBatches {
			for i, b := range hot {
				checkAnswer(rep, &rs, s.sess, fmt.Sprintf("final answer %d (replayed chain)", i), b, final[i])
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, c := range cands {
		if !c.matched {
			rep.fail("read %d (%s): body matches no epoch in [%d, %d]", c.i, recs[c.i].path, c.lo, c.hi)
		}
	}
	rs.report(rep)

	// A from-scratch session over the same claim log must serve the same
	// final answers.
	dlog, err := frozen(w.claims)
	if err != nil {
		return err
	}
	for _, b := range batches[:nBatches] {
		if dlog, err = dlog.Append(b); err != nil {
			return err
		}
	}
	rebuilt, err := session.New(dlog, sessionConfig())
	if err != nil {
		return err
	}
	var ignored replayStats
	for i, b := range hot {
		checkAnswer(rep, &ignored, rebuilt, fmt.Sprintf("final answer %d (session.New over the log)", i), b, final[i])
	}

	if !cfg.trace {
		return nil
	}
	deltas.report(rep)
	traceLayers(rep, tr, cfg, ps, recs, arecs)
	wl.report(rep)
	finishWrites(rep, []*shard{st.sh}, disk, totalClaims(w.claims, batches[:nBatches]))
	var sampled []op
	for _, c := range cands {
		sampled = append(sampled, op{path, hot[picks[c.i]]})
	}
	if err := routerReplay(rep, tr, st.sh, sampled); err != nil {
		return err
	}
	if err := asOfServed(rep, st.sh.reg, name); err != nil {
		return err
	}
	return ladder(rep, w.claims, cfg.workDir)
}
