// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded worlds, serves them through the in-process serving stack over real
// loopback HTTP (server.New over a server.Registry, fronted by
// cluster.NewRouter where the workload is routed), drives one workload's
// traffic, checks the served outputs, and prints its metrics. Run it from
// the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload answer-miss --seed 1 --seconds 30 --trace 0
//
// Every workload has the same phases: set-up, built setupReps times
// (setup_s is the median); quality (answer_accuracy over a fixed evaluation
// query set, copy_f1 of the served copy verdicts against the planted
// copiers); reads; appends; checks. Reads alternate open-loop segments with
// closed-loop windows (answer-ingest runs its closed windows after the
// live feed). read_p50_ms is the open-loop median, timed from each
// request's due time; read_p95_ms (read_p99_ms) is the median over
// consecutive windows of at least 200 (1000) reads of each window's p95
// (p99); read_capacity_rps is the median closed window rate. A failed read
// counts as a miss of every limit.
//
// The last line of standard output is one JSON object with keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run records spans around every layer
// boundary, writes them out at exit, and reports per-layer metrics instead.
// The line before it is a JSON report: machine, options, world sizes,
// sample and base counts, flags, and the metrics of the other kind. The
// command exits non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, the counts behind them, and
// correctness failures.
type report struct {
	metrics   map[string]metric
	bases     map[string]int64
	info      map[string]any
	flags     []string
	failures  []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, bases: map[string]int64{}, info: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setN records a metric together with the sample or denominator count it
// was taken over.
func (r *report) setN(name string, v float64, unit string, base int) {
	r.set(name, v, unit)
	r.bases[name] = int64(base)
}

func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

func (r *report) flag(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.flags = append(r.flags, msg)
	fmt.Fprintln(os.Stderr, "perfbench: flag:", msg)
}

// count adds operations to the attempted and failed totals.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	nproc    int
}

var workloads = map[string]func(*runConfig, *report) error{
	"answer-miss":   runMiss,
	"answer-hot":    runHot,
	"answer-ingest": runIngest,
}

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names. read_p99_ms is measured too and printed in the report line,
// but not gated: on a shared two-core host its run-to-run spread is wider
// than any bound a regression gate can use.
var endToEnd = []string{"setup_s", "read_p50_ms", "read_p95_ms", "read_capacity_rps",
	"append_p50_ms", "append_p95_ms", "heap_live_mb", "disk_mb", "answer_accuracy", "copy_f1"}

// layerMetric is one per-layer metric of a traced run and the end-to-end
// metric, on the workload, that a change in it should move.
type layerMetric struct {
	name, moves string
}

// perLayer are the metrics of a traced run, in BENCHMARK.json's order.
var perLayer = []layerMetric{
	{"dataset.compile_ms", "setup_s, all workloads"},
	{"depen.detect_ms", "setup_s, all workloads"},
	{"session.new_ms", "setup_s, all workloads"},
	{"depen.pairs_analyzed", "setup_s, all workloads"},
	{"depen.rounds", "setup_s, all workloads"},
	{"session.snapshot_v2_write_ms", "setup_s, answer-hot"},
	{"session.snapshot_v2_load_ms", "setup_s, answer-hot"},
	{"bench.request_ms", "read_p50_ms and read_p95_ms, all workloads"},
	{"bench.gen_lag_ms", "read_p50_ms and read_p95_ms, all workloads (must stay small against read_p50_ms)"},
	{"bench.read_p50_traced_ms", "tracing overhead against bench.read_p50_untraced_ms, all workloads"},
	{"bench.read_p50_untraced_ms", "tracing overhead against bench.read_p50_traced_ms, all workloads"},
	{"cluster.route_self_ms", "read_p50_ms and read_capacity_rps, answer-hot"},
	{"cluster.tries_per_read", "read_p50_ms and read_capacity_rps, answer-hot"},
	{"cluster.retries", "read_p95_ms, answer-hot"},
	{"cluster.hedges", "read_p95_ms, answer-hot"},
	{"server.serve_ms", "read_p50_ms: answer-hot (hits) against answer-miss (misses); read_p95_ms, answer-hot and answer-ingest"},
	{"server.cache_hit_ratio", "read_p50_ms: near 1 on answer-hot, near 0 on answer-miss"},
	{"server.coalesced", "read_p95_ms, answer-ingest"},
	{"server.world_loads", "read_p95_ms, answer-hot"},
	{"server.world_evictions", "read_p95_ms, answer-hot"},
	{"server.resident_max", "heap_live_mb and read_p95_ms, answer-hot (reports a resident bound exceeded)"},
	{"server.resident_quiescent", "heap_live_mb, answer-hot (reports a resident bound still exceeded when idle)"},
	{"queryans.answer_ms", "read_p50_ms, read_p95_ms and read_capacity_rps, answer-miss"},
	{"queryans.probes_per_answer", "read_p50_ms and read_capacity_rps, answer-miss"},
	{"server.encode_ms", "read_p50_ms and read_capacity_rps, answer-miss"},
	{"session.asof_ms", "read_p50_ms, answer-ingest"},
	{"server.serve_append_ms", "append_p50_ms and append_p95_ms, answer-ingest"},
	{"dataset.append_ms", "append_p50_ms, answer-ingest"},
	{"depen.refine_ms", "append_p50_ms, answer-ingest"},
	{"session.append_ms", "append_p50_ms, answer-ingest"},
	{"session.snapshot_v1_write_ms", "append_p95_ms and disk_mb, answer-ingest"},
	{"server.compactions", "append_p95_ms and disk_mb, answer-ingest"},
	{"server.swaps", "append_p50_ms, answer-ingest"},
	{"server.disk_bytes_per_claim", "disk_mb, answer-ingest"},
}

func main() {
	correct, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and reports whether every correctness
// check passed.
func run() (bool, error) {
	workload := flag.String("workload", "", "workload: answer-miss, answer-hot or answer-ingest")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workRoot := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for snapshots, segments and spans")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return false, fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return false, fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	cfg := &runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: dir, nproc: runtime.NumCPU(),
	}
	rep := newReport()
	rep.info["workload"] = cfg.workload
	rep.info["seed"] = cfg.seed
	rep.info["seconds"] = cfg.seconds
	rep.info["trace"] = cfg.trace
	rep.info["env"] = environment()
	rep.info["server_options"] = map[string]any{
		"answer_cache_size": answerCacheSize, "retain_epochs": retainEpochs,
		"compact_every": compactEvery, "parallelism": 0, "persist_appends": true,
	}
	if err := fn(cfg, rep); err != nil {
		return false, err
	}

	names := endToEnd
	if cfg.trace {
		names = nil
		targets := map[string]string{}
		for _, m := range perLayer {
			names = append(names, m.name)
			targets[m.name] = m.moves
		}
		rep.info["layer_targets"] = targets
	}
	metrics := map[string]metric{}
	for _, name := range names {
		m, ok := rep.metrics[name]
		if !ok {
			return false, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		metrics[name] = m
		delete(rep.metrics, name)
	}
	rep.info["other_metrics"] = rep.metrics
	rep.info["bases"] = rep.bases
	rep.info["flags"] = rep.flags
	rep.info["check_failures"] = rep.failures
	info, err := json.Marshal(rep.info)
	if err != nil {
		return false, err
	}
	fmt.Println(string(info))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return len(rep.failures) == 0, nil
}

// environment records what every number depends on: core counts (before
// Go 1.25 GOMAXPROCS ignores a cgroup CPU quota), toolchain and CPU.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
