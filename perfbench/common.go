package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/eval"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// queryWidth is the number of objects per answer query.
const queryWidth = 5

// setupReps is how many times a run builds its serving stack; setup_s is
// the median. Every repetition but the last is torn down again.
const setupReps = 9

func answerBody(q []model.ObjectID) []byte {
	req := server.AnswerRequest{Query: make([]server.ObjectRef, len(q))}
	for i, o := range q {
		req.Query[i] = server.ObjectRef{Entity: o.Entity, Attribute: o.Attribute}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings always encodes
	}
	return b
}

func appendBody(batch []model.Claim) []byte {
	req := server.AppendRequest{Claims: make([]server.ClaimJSON, len(batch))}
	for i, c := range batch {
		req.Claims[i] = server.ClaimJSON{Source: string(c.Source), Entity: c.Object.Entity,
			Attribute: c.Object.Attribute, Value: c.Value}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

func frozen(claims []model.Claim) (*dataset.Dataset, error) {
	d := dataset.New()
	if err := d.AddAll(claims); err != nil {
		return nil, err
	}
	d.Freeze()
	return d, nil
}

// measureSetup builds a stack setupReps times and keeps the last; it
// returns the build times in seconds.
func measureSetup[T any](build func(rep int) (T, error), teardown func(T) error) (T, []float64, error) {
	var st T
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		s, err := build(rep)
		if err != nil {
			return st, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep < setupReps-1 {
			if err := teardown(s); err != nil {
				return st, nil, fmt.Errorf("setup teardown: %w", err)
			}
			continue
		}
		st = s
	}
	return st, times, nil
}

// firstAnswer sends one answer and requires a 200: the end of set-up.
func firstAnswer(c *client, path string, body []byte) error {
	status, b, err := c.post(path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first answer: status %d: %s", status, b)
	}
	return nil
}

// expectedAnswer renders req in-process exactly as the server does:
// ExecAnswer, BuildAnswerResponse, JSON encoding with a trailing newline.
func expectedAnswer(sess *session.Session, body []byte) (want []byte, probes int, answer, encode time.Duration, err error) {
	var req server.AnswerRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, 0, 0, 0, err
	}
	t0 := time.Now()
	res, err := server.ExecAnswer(sess, req)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	t1 := time.Now()
	want, err = json.Marshal(server.BuildAnswerResponse(res, req.IncludeSteps))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	want = append(want, '\n')
	return want, len(res.Probed), t1.Sub(t0), time.Since(t1), nil
}

// replayStats times the in-process replay of sampled answers.
type replayStats struct {
	answerMS, encodeMS []float64
	probes             []float64
}

// checkAnswer compares one served body with its in-process rendering and
// adds the replay's timings to rs.
func checkAnswer(rep *report, rs *replayStats, sess *session.Session, what string, req, got []byte) {
	want, probes, ans, enc, err := expectedAnswer(sess, req)
	if err != nil {
		rep.fail("%s: in-process answer: %v", what, err)
		return
	}
	if !bytes.Equal(want, got) {
		rep.fail("%s: served body differs from ExecAnswer+BuildAnswerResponse:\n got %s\nwant %s", what, got, want)
	}
	rs.answerMS = append(rs.answerMS, ms(ans))
	rs.encodeMS = append(rs.encodeMS, ms(enc))
	rs.probes = append(rs.probes, float64(probes))
}

func (rs *replayStats) report(rep *report) {
	rep.setN("queryans.answer_ms", median(rs.answerMS), "ms", len(rs.answerMS))
	rep.setN("queryans.probes_per_answer", mean(rs.probes), "count", len(rs.probes))
	rep.setN("server.encode_ms", median(rs.encodeMS), "ms", len(rs.encodeMS))
}

// evalQueries draws the fixed evaluation query set of a world.
func evalQueries(w *world, rng *rand.Rand, n int) [][]model.ObjectID {
	qs := make([][]model.ObjectID, n)
	for i := range qs {
		qs[i] = w.randomQuery(rng, queryWidth)
	}
	return qs
}

// answerHits sends each evaluation query and counts the query objects whose
// served answer equals the ground truth.
func answerHits(c *client, path string, w *world, qs [][]model.ObjectID) (hits, total int, err error) {
	for _, q := range qs {
		status, b, err := c.post(path, answerBody(q))
		if err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK {
			return 0, 0, fmt.Errorf("evaluation query: status %d: %s", status, b)
		}
		var resp server.AnswerResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			return 0, 0, err
		}
		for _, a := range resp.Final {
			total++
			if a.Value == w.truth[model.Obj(a.Entity, a.Attribute)] {
				hits++
			}
		}
	}
	return hits, total, nil
}

// copyVerdicts lists the pairs a discovery result reports as dependent.
func copyVerdicts(dep *depen.Result) []model.SourcePair {
	out := make([]model.SourcePair, len(dep.Dependences))
	for i, d := range dep.Dependences {
		out[i] = d.Pair
	}
	return out
}

// setQuality reports answer_accuracy and copy_f1.
func setQuality(rep *report, hits, total int, prf eval.PRF) {
	rep.setN("answer_accuracy", float64(hits)/float64(total), "ratio", total)
	rep.setN("copy_f1", prf.F1, "ratio", prf.TP+prf.FP+prf.FN)
	rep.info["copy_detection"] = prf
}

// setReads reports the open-loop latencies and the closed-loop capacity.
func setReads(rep *report, ps phaseStats, tally closedTally) {
	n := ps.lat.attempted()
	if p, ok := highestPercentile(n); !ok || p < 99 {
		rep.flag("open loop has %d reads: p99 has fewer than %d samples beyond it", n, minBeyond)
	}
	rep.setN("read_p50_ms", capped(ps.lat.percentile(50)), "ms", n)
	rep.setN("read_p95_ms", capped(ps.tail(95)), "ms", n)
	rep.setN("read_p99_ms", capped(ps.tail(99)), "ms", n)
	rep.info["read_tail_windows"] = map[string]int{"p95": len(ps.tailWindows(95)), "p99": len(ps.tailWindows(99))}
	rep.setN("read_capacity_rps", tally.capacity(), "1/s", tally.ok+tally.failed)
	rep.info["read_capacity_windows"] = len(tally.rates)
	rep.count(n, ps.lat.failed)
	rep.count(tally.ok+tally.failed, tally.failed)
	if ps.serverErrors+tally.serverErrors > 0 {
		rep.fail("%d reads answered 5xx", ps.serverErrors+tally.serverErrors)
	}
	lag := median(ps.lagMS)
	rep.info["gen_lag_p50_ms"] = lag
	rep.info["gen_lag_p99_ms"] = percentile(ps.lagMS, 99)
	// A generator that runs late measures its own timer, not the server.
	if p50 := ps.lat.percentile(50); lag > 0.1*p50 {
		rep.flag("open-loop generator lag p50 %.3f ms is not small against read p50 %.3f ms", lag, p50)
	}
}

// setAppends reports append latencies.
func setAppends(rep *report, ps phaseStats) {
	n := ps.lat.attempted()
	if p, ok := highestPercentile(n); !ok || p < 95 {
		rep.flag("%d appends: p95 has fewer than %d samples beyond it", n, minBeyond)
	}
	rep.setN("append_p50_ms", capped(ps.lat.percentile(50)), "ms", n)
	rep.setN("append_p95_ms", capped(ps.lat.percentile(95)), "ms", n)
	rep.count(n, ps.lat.failed)
	if ps.serverErrors > 0 {
		rep.fail("%d appends answered 5xx", ps.serverErrors)
	}
}

// capped replaces a missed limit (+Inf, a failed operation) by the request
// timeout, the longest any operation may take.
func capped(v float64) float64 {
	return math.Min(v, ms(requestTimeout))
}

// setFootprint reports the live heap after a forced GC and the bytes the
// serving stack holds on disk.
func setFootprint(rep *report, dirs []string) (diskBytes int64, err error) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("heap_live_mb", float64(m.HeapAlloc)/1e6, "MB")
	for _, d := range dirs {
		n, err := dirBytes(d)
		if err != nil {
			return 0, err
		}
		diskBytes += n
	}
	rep.set("disk_mb", float64(diskBytes)/1e6, "MB")
	return diskBytes, nil
}

// ladder times the build path on one world's claims: compile, Detect,
// session.New, and the v2 snapshot write and load, each the median of
// three repetitions on fresh datasets.
func ladder(rep *report, claims []model.Claim, dir string) error {
	var compile, detect, newSess, v2w, v2l []float64
	var pairs, rounds int
	cfg := sessionConfig()
	for i := 0; i < 3; i++ {
		d, err := frozen(claims)
		if err != nil {
			return err
		}
		t0 := time.Now()
		d.Compiled()
		compile = append(compile, ms(time.Since(t0)))
		t0 = time.Now()
		dep, err := depen.Detect(d, cfg.Depen)
		if err != nil {
			return err
		}
		detect = append(detect, ms(time.Since(t0)))
		pairs, rounds = len(dep.AllPairs), dep.Rounds

		d2, err := frozen(claims)
		if err != nil {
			return err
		}
		t0 = time.Now()
		s, err := session.New(d2, cfg)
		if err != nil {
			return err
		}
		newSess = append(newSess, ms(time.Since(t0)))

		path := filepath.Join(dir, "ladder.snap")
		t0 = time.Now()
		if err := writeFile(path, s.WriteSnapshotV2); err != nil {
			return err
		}
		v2w = append(v2w, ms(time.Since(t0)))
		t0 = time.Now()
		ls, err := session.LoadSnapshotFile(path, cfg)
		if err != nil {
			return err
		}
		v2l = append(v2l, ms(time.Since(t0)))
		if err := ls.Close(); err != nil {
			return err
		}
	}
	rep.setN("dataset.compile_ms", median(compile), "ms", len(compile))
	rep.setN("depen.detect_ms", median(detect), "ms", len(detect))
	rep.setN("session.new_ms", median(newSess), "ms", len(newSess))
	rep.set("depen.pairs_analyzed", float64(pairs), "count")
	rep.set("depen.rounds", float64(rounds), "count")
	rep.setN("session.snapshot_v2_write_ms", median(v2w), "ms", len(v2w))
	rep.setN("session.snapshot_v2_load_ms", median(v2l), "ms", len(v2l))
	return nil
}

// writeFile writes path through write and syncs nothing: the benchmark's
// files are scratch.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chainStep is one replayed append: the successor session and how long
// each layer took to build it.
type chainStep struct {
	epoch                      int
	sess                       *session.Session
	dsAppend, refine, sessAppd time.Duration
	v1Write                    time.Duration // compaction epochs only
}

// replayChain re-applies batches to a fresh session over claims, the way
// the server does, calling visit at epoch 0 and after every batch. With
// layers set it also times dataset.Append and depen.Refine on their own,
// and a v1 snapshot write at every compaction epoch.
func replayChain(claims []model.Claim, batches [][]model.Claim, layers bool, dir string, visit func(chainStep) error) error {
	d, err := frozen(claims)
	if err != nil {
		return err
	}
	cfg := sessionConfig()
	// A session of its own: appending to the served session would push
	// the replay's predecessors into the served epoch history.
	cur, err := session.New(d, cfg)
	if err != nil {
		return err
	}
	if err := visit(chainStep{epoch: 0, sess: cur}); err != nil {
		return err
	}
	for i, b := range batches {
		step := chainStep{epoch: i + 1}
		if layers {
			t0 := time.Now()
			d2, err := cur.Dataset().Append(b)
			if err != nil {
				return err
			}
			step.dsAppend = time.Since(t0)
			t0 = time.Now()
			if _, err := depen.Refine(d2, cur.Dependence(), cfg.Depen); err != nil {
				return err
			}
			step.refine = time.Since(t0)
		}
		t0 := time.Now()
		next, err := cur.Append(b)
		if err != nil {
			return err
		}
		step.sessAppd = time.Since(t0)
		if layers && step.epoch%compactEvery == 0 {
			t0 = time.Now()
			if err := writeFile(filepath.Join(dir, "replay.snap"), next.WriteSnapshot); err != nil {
				return err
			}
			step.v1Write = time.Since(t0)
		}
		cur = next
		step.sess = cur
		if err := visit(step); err != nil {
			return err
		}
	}
	return nil
}

// writeLayers reports the write path from a replayed chain.
type writeLayers struct {
	dsAppend, refine, sessAppend, v1Write []float64
}

func (wl *writeLayers) add(s chainStep) {
	if s.epoch == 0 {
		return
	}
	wl.dsAppend = append(wl.dsAppend, ms(s.dsAppend))
	wl.refine = append(wl.refine, ms(s.refine))
	wl.sessAppend = append(wl.sessAppend, ms(s.sessAppd))
	if s.v1Write > 0 {
		wl.v1Write = append(wl.v1Write, ms(s.v1Write))
	}
}

func (wl *writeLayers) report(rep *report) {
	rep.setN("dataset.append_ms", median(wl.dsAppend), "ms", len(wl.dsAppend))
	rep.setN("depen.refine_ms", median(wl.refine), "ms", len(wl.refine))
	rep.setN("session.append_ms", median(wl.sessAppend), "ms", len(wl.sessAppend))
	rep.setN("session.snapshot_v1_write_ms", median(wl.v1Write), "ms", len(wl.v1Write))
}

// asOfReplay times server.ResolveAsOf against every retained historical
// epoch of sess, several rounds.
func asOfReplay(rep *report, sess *session.Session) error {
	var xs []float64
	cur := sess.DatasetEpoch()
	for round := 0; round < 50; round++ {
		for e := sess.HistoryFloor(); e < cur; e++ {
			t0 := time.Now()
			if _, _, err := server.ResolveAsOf(sess, strconv.Itoa(e)); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
	}
	rep.setN("session.asof_ms", median(xs), "ms", len(xs))
	return nil
}
