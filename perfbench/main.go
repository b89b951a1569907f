// Command perfbench is the repository's benchmark. It drives the public
// stark API from one process over three seeded workloads (replay, shuffle,
// churn), checks every job's result against a reference evaluator, and
// prints end-to-end metrics or, with -trace 1, per-layer metrics. See
// README.md for the metrics and workloads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"stark"
)

// heldOutSeed is reserved for verifying a performance claim on inputs not
// used while the change was written; do not tune against it.
const heldOutSeed = 7919

// minPasses is the least number of passes in an untraced run, so setup_s
// is a median of several set-ups.
const minPasses = 3

// parallelism is the data-plane worker count (stark.WithParallelism) of
// every run; the tests also run at 1 to check that virtual results do not
// depend on it.
const parallelism = 2

// maxWall stops starting new passes once a run has taken this long, so
// even a much slower program finishes well inside three minutes.
const maxWall = 120 * time.Second

type options struct {
	seed      int64
	seconds   float64
	par       int
	traced    bool
	artifacts string
	inject    bool
}

func main() {
	name := flag.String("workload", "", "workload: replay, shuffle or churn")
	seed := flag.Int64("seed", 1, fmt.Sprintf("input seed (held-out seed for verifying claims: %d)", heldOutSeed))
	secs := flag.Int("seconds", 10, "seconds of timed work to measure")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	artifacts := flag.String("artifacts", "", "directory for the traced run's spans and CPU profile (none when empty)")
	inject := flag.Bool("inject-mismatch", false, "corrupt one recorded result, to prove the reference check fails the run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload replay|shuffle|churn, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: float64(*secs), par: parallelism, traced: *trace == 1, artifacts: *artifacts, inject: *inject}
	rep, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	specs := endToEndSpecs
	if o.traced {
		specs = perLayerSpecs
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v := rep.metrics[s.name]
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Printf("%-28s %14.6g %-6s (%s is better)\n", s.name, v, s.unit, s.better)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed: %s\n", rep.failed, rep.attempted, rep.firstFailure)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type report struct {
	attempted, failed int
	firstFailure      string
	metrics           map[string]float64
}

// run measures untraced passes until o.seconds of timed work are done
// and reports the end-to-end metrics; traced, it spends half the budget
// on untraced passes, then runs one traced pass and reports its per-layer
// metrics.
func run(w workload, o options) (report, error) {
	start := time.Now()
	budget, least := o.seconds, minPasses
	if o.traced {
		budget, least = o.seconds/2, 1
	}
	var passes []passResult
	timed := 0.0
	for len(passes) < least || (timed < budget && time.Since(start) < maxWall) {
		p, err := runPass(w, o, nil, len(passes))
		if err != nil {
			return report{}, err
		}
		passes = append(passes, p)
		timed += p.timed.Seconds()
		fmt.Fprintf(os.Stderr, "pass %d: setup %.3fs, %d ops, %d jobs in %.3fs, cpu %.3fs\n",
			len(passes)-1, p.setup.Seconds(), p.ops, p.jobs, p.timed.Seconds(), p.cpu.Seconds())
	}
	rep := report{metrics: endToEnd(passes)}
	if o.traced {
		tp, err := tracedPass(w, o, len(passes))
		if err != nil {
			return report{}, err
		}
		tp.layer["trace.untraced_jobs_per_s"] = rep.metrics["jobs_per_s"]
		tp.layer["trace.overhead_frac"] = 1 - ratio(ratio(float64(tp.jobs), tp.timed.Seconds()), rep.metrics["jobs_per_s"])
		passes = append(passes, tp)
		rep.metrics = tp.layer
	}
	for _, p := range passes {
		rep.attempted += p.ops
		rep.failed += len(p.failedOps)
		if rep.firstFailure == "" {
			rep.firstFailure = p.firstFailure
		}
	}
	return rep, nil
}

// passResult is one set-up plus one timed region of w.ops ops on a fresh
// Context.
type passResult struct {
	setup    time.Duration
	timed    time.Duration // sum of op wall times
	cpu      time.Duration // process CPU over the timed region
	jobs     int
	ops      int
	opWall   []time.Duration
	vdelays  []time.Duration
	vtime    time.Duration
	heapPeak float64
	results  []int64 // every checked job result, in order

	failedOps    map[int]bool
	firstFailure string

	layer map[string]float64 // traced passes only
}

// runPass sets up w, runs its timed ops, then checks every recorded result
// and the cluster's consistency. With a tracer it also records spans,
// pprof labels and the per-layer counters.
func runPass(w workload, o options, tr *tracer, n int) (passResult, error) {
	runtime.GC() // start every pass from the same heap
	var res passResult
	if tr != nil {
		tr.run = fmt.Sprintf("%s/seed%d/pass%d", w.name, o.seed, n)
	}
	root := tr.begin("pass")
	var inst instance
	var err error
	t0 := time.Now()
	labelled(tr, w.name, "setup", func() {
		sp := tr.begin("setup")
		inst, err = w.setup(o.seed, o.par, tr)
		tr.end(sp)
	})
	res.setup = time.Since(t0)
	if err != nil {
		return res, err
	}
	b := inst.state()
	ctx := b.ctx

	var sink *jobSink
	if tr != nil {
		sink = newJobSink()
		ctx.SetTracer(sink.observe)
	}
	c0 := readCounters(ctx)
	timedID := tr.begin("timed")
	res.failedOps = map[int]bool{}
	labelled(tr, w.name, "timed", func() {
		for i := 0; i < w.ops; i++ {
			sp := tr.begin("op")
			s := time.Now()
			d, err := inst.op(i, tr)
			wall := time.Since(s)
			tr.end(sp)
			res.timed += wall
			res.opWall = append(res.opWall, wall)
			res.vdelays = append(res.vdelays, d...)
			if err != nil {
				res.failedOps[i] = true
				if res.firstFailure == "" {
					res.firstFailure = err.Error()
				}
			}
			if h := heapLive(); h > res.heapPeak {
				res.heapPeak = h
			}
		}
	})
	tr.end(timedID)
	c1 := readCounters(ctx)
	res.cpu = c1.cpu - c0.cpu
	res.ops = w.ops
	res.jobs = c1.st.Jobs - c0.st.Jobs
	res.vtime = c1.now - c0.now
	if tr != nil {
		ctx.SetTracer(nil)
	}

	// Outside the timed region: reference check and cluster invariants.
	vs := tr.begin("verify")
	if o.inject && len(b.checks) > 0 {
		b.checks[0].got++
	}
	bad, first := b.verify()
	for op := range bad {
		res.failedOps[op] = true
	}
	if res.firstFailure == "" {
		res.firstFailure = first
	}
	if err := ctx.CheckClusterConsistency(); err != nil {
		for i := 0; i < w.ops; i++ {
			res.failedOps[i] = true
		}
		res.firstFailure = "cluster consistency: " + err.Error()
	}
	for _, c := range b.checks {
		res.results = append(res.results, c.got)
	}
	tr.end(vs)
	tr.end(root)

	if tr != nil {
		res.layer = layerMetrics(tr, timedID, sink, b, c0, c1)
	}
	return res, nil
}

// tracedPass runs one pass with spans, labels and the CPU profile, writes
// the artifacts, and adds the profile-derived metrics.
func tracedPass(w workload, o options, n int) (passResult, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return passResult{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := runPass(w, o, tr, n)
	pprof.StopCPUProfile()
	if err != nil {
		return p, err
	}
	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return p, err
	}
	mcf, base := cp.fraction("phase", "timed", "stark/internal/cluster.(*Cluster).UniqueKeysCached")
	dp, _ := cp.fraction("phase", "timed", "stark/internal/engine.(*Engine).runPlane")
	p.layer["engine.profile_samples"] = float64(base)
	p.layer["engine.mcf_cpu_frac"] = ratio(float64(mcf), float64(base))
	p.layer["engine.dataplane_cpu_frac"] = ratio(float64(dp), float64(base))
	if o.artifacts != "" {
		if err := os.MkdirAll(o.artifacts, 0o755); err != nil {
			return p, err
		}
		stem := filepath.Join(o.artifacts, fmt.Sprintf("%s-seed%d", w.name, o.seed))
		if err := tr.write(stem + "-spans.json"); err != nil {
			return p, err
		}
		if err := os.WriteFile(stem+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return p, err
		}
	}
	return p, nil
}

// labelled runs f under pprof labels workload and phase when traced; the
// engine's data-plane worker goroutines, started inside f, inherit them.
func labelled(tr *tracer, workload, phase string, f func()) {
	if tr == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "phase", phase), func(context.Context) { f() })
}

// jobSink is the engine trace sink of a traced pass: it stamps wall time
// at job submit and finish, and counts checkpoints.
type jobSink struct {
	submitted   map[int]time.Time
	jobWall     []time.Duration
	checkpoints int
}

func newJobSink() *jobSink { return &jobSink{submitted: map[int]time.Time{}} }

func (s *jobSink) observe(ev stark.TraceEvent) {
	switch ev.Kind {
	case "job-submit":
		s.submitted[ev.Job] = time.Now()
	case "job-finish":
		if t, ok := s.submitted[ev.Job]; ok {
			s.jobWall = append(s.jobWall, time.Since(t))
			delete(s.submitted, ev.Job)
		}
	case "checkpoint":
		s.checkpoints++
	}
}

func endToEnd(ps []passResult) map[string]float64 {
	var setups, vtimes []float64
	var walls, delays []time.Duration
	var timed, cpu time.Duration
	jobs, ops, failed := 0, 0, 0
	peak := 0.0
	for _, p := range ps {
		setups = append(setups, p.setup.Seconds())
		vtimes = append(vtimes, p.vtime.Seconds())
		walls = append(walls, p.opWall...)
		delays = append(delays, p.vdelays...)
		timed += p.timed
		cpu += p.cpu
		jobs += p.jobs
		ops += p.ops
		failed += len(p.failedOps)
		if p.heapPeak > peak {
			peak = p.heapPeak
		}
	}
	return map[string]float64{
		"setup_s":        quantile(setups, 0.5),
		"jobs_per_s":     ratio(float64(jobs), timed.Seconds()),
		"op_p50_ms":      quantile(millis(walls), 0.5),
		"op_p90_ms":      quantile(millis(walls), 0.9),
		"cpu_per_job_ms": ratio(float64(cpu)/1e6, float64(jobs)),
		"heap_peak_mb":   peak / (1 << 20),
		"ok_frac":        ratio(float64(ops-failed), float64(ops)),
		"vdelay_p50_ms":  quantile(millis(delays), 0.5),
		"vdelay_p95_ms":  quantile(millis(delays), 0.95),
		"vtime_s":        quantile(vtimes, 0.5),
	}
}

// counters is a snapshot of the program's public counters and the
// process's, taken at both ends of the timed region.
type counters struct {
	st  stark.EngineStats
	cs  stark.CacheStats
	ns  stark.NetworkStats
	ck  int64         // checkpointed bytes
	now time.Duration // virtual time
	rt  runtimeSample
	cpu time.Duration
}

func readCounters(ctx *stark.Context) counters {
	return counters{
		st: ctx.Stats(), cs: ctx.CacheStats(), ns: ctx.NetworkStats(),
		ck: ctx.TotalCheckpointBytes(), now: ctx.Now(), rt: readRuntime(), cpu: cpuTime(),
	}
}

// layerMetrics derives the per-layer metrics of a traced pass: span times
// of the benchmark's calls into each layer, and the program's public
// counters and the Go runtime's, as deltas over the timed region.
func layerMetrics(tr *tracer, timedID int, sink *jobSink, inst *base, c0, c1 counters) map[string]float64 {
	const mb = 1 << 20
	gen := tr.sum(0, "workload.generate")
	ingest := tr.durations(timedID, "stream.ingest")
	engineS := tr.sum(timedID, "engine.")
	d := func(a, b int) float64 { return float64(b - a) }
	tasks := d(c0.st.Tasks, c1.st.Tasks)
	local, remote := d(c0.st.LocalTasks, c1.st.LocalTasks), d(c0.st.RemoteTasks, c1.st.RemoteTasks)
	hits, misses := float64(c1.st.CacheHits-c0.st.CacheHits), float64(c1.st.CacheMisses-c0.st.CacheMisses)
	leaves := 0.0
	if inst.ns != "" {
		if gs, err := inst.ctx.GroupList(inst.ns); err == nil {
			leaves = float64(len(gs))
		}
	}
	alloc := c1.rt.alloc - c0.rt.alloc
	return map[string]float64{
		"workload.gen_s":                 gen,
		"workload.records":               float64(inst.records),
		"stream.ingest_s":                sumSeconds(ingest),
		"stream.ingest_p50_ms":           orZero(quantile(millis(ingest), 0.5)),
		"engine.job_s":                   engineS,
		"engine.jobs":                    d(c0.st.Jobs, c1.st.Jobs),
		"engine.tasks":                   tasks,
		"engine.wall_per_task_us":        ratio(engineS*1e6, tasks),
		"engine.job_wall_p50_ms":         orZero(quantile(millis(sink.jobWall), 0.5)),
		"engine.v_compute_s":             (c1.st.ComputeTime - c0.st.ComputeTime).Seconds(),
		"engine.v_gc_s":                  (c1.st.GCTime - c0.st.GCTime).Seconds(),
		"engine.v_shuffle_s":             (c1.st.ShuffleTime - c0.st.ShuffleTime).Seconds(),
		"sched.local_frac":               ratio(local, local+remote),
		"sched.tasks_launched":           local + remote,
		"sched.remote_tasks":             remote,
		"group.leaves":                   leaves,
		"cluster.cache_hit_ratio":        ratio(hits, hits+misses),
		"cluster.cache_reads":            hits + misses,
		"cluster.cache_refusals":         d(c0.cs.CacheRefusals, c1.cs.CacheRefusals),
		"cluster.pinned_blocked":         d(c0.cs.PinnedEvictionsBlocked, c1.cs.PinnedEvictionsBlocked),
		"cluster.recomputes_after_evict": d(c0.cs.RecomputesAfterEviction, c1.cs.RecomputesAfterEviction),
		"storage.shuffle_mb":             float64(c1.st.BytesShuffled-c0.st.BytesShuffled) / mb,
		"storage.checkpoint_mb":          float64(c1.ck-c0.ck) / mb,
		"checkpoint.invocations":         float64(sink.checkpoints),
		"net.msgs_sent":                  d(c0.ns.Sent, c1.ns.Sent),
		"runtime.gc_cpu_s":               c1.rt.gcCPU - c0.rt.gcCPU,
		"runtime.gc_cycles":              c1.rt.gcCycles - c0.rt.gcCycles,
		"runtime.alloc_mb":               alloc / mb,
		"runtime.alloc_per_task_kb":      ratio(alloc/1024, tasks),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

func sumSeconds(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}

// metricSpec names one reported metric; the lists below are the contract
// BENCHMARK.json declares, in the same order.
type metricSpec struct {
	name, unit, better string
	// exact marks per-layer metrics that are program counts or virtual
	// times: equal for equal seeds at any parallelism. Every metric in
	// unit "count" is exact; counts of the Go runtime or of the profiler
	// use their own units (cycles, samples).
	exact bool
}

var endToEndSpecs = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p90_ms", unit: "ms", better: "lower"},
	{name: "cpu_per_job_ms", unit: "ms", better: "lower"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
	{name: "vdelay_p50_ms", unit: "ms", better: "lower"},
	{name: "vdelay_p95_ms", unit: "ms", better: "lower"},
	{name: "vtime_s", unit: "s", better: "lower"},
}

var perLayerSpecs = []metricSpec{
	{name: "workload.gen_s", unit: "s", better: "lower"},
	{name: "workload.records", unit: "count", better: "lower", exact: true},
	{name: "stream.ingest_s", unit: "s", better: "lower"},
	{name: "stream.ingest_p50_ms", unit: "ms", better: "lower"},
	{name: "engine.job_s", unit: "s", better: "lower"},
	{name: "engine.jobs", unit: "count", better: "higher", exact: true},
	{name: "engine.tasks", unit: "count", better: "lower", exact: true},
	{name: "engine.wall_per_task_us", unit: "us", better: "lower"},
	{name: "engine.job_wall_p50_ms", unit: "ms", better: "lower"},
	{name: "engine.mcf_cpu_frac", unit: "frac", better: "lower"},
	{name: "engine.dataplane_cpu_frac", unit: "frac", better: "lower"},
	{name: "engine.profile_samples", unit: "samples", better: "lower"},
	{name: "engine.v_compute_s", unit: "s", better: "lower", exact: true},
	{name: "engine.v_gc_s", unit: "s", better: "lower", exact: true},
	{name: "engine.v_shuffle_s", unit: "s", better: "lower", exact: true},
	{name: "sched.local_frac", unit: "frac", better: "higher", exact: true},
	{name: "sched.tasks_launched", unit: "count", better: "lower", exact: true},
	{name: "sched.remote_tasks", unit: "count", better: "lower", exact: true},
	{name: "group.leaves", unit: "count", better: "lower", exact: true},
	{name: "cluster.cache_hit_ratio", unit: "frac", better: "higher", exact: true},
	{name: "cluster.cache_reads", unit: "count", better: "lower", exact: true},
	{name: "cluster.cache_refusals", unit: "count", better: "lower", exact: true},
	{name: "cluster.pinned_blocked", unit: "count", better: "lower", exact: true},
	{name: "cluster.recomputes_after_evict", unit: "count", better: "lower", exact: true},
	{name: "storage.shuffle_mb", unit: "MB", better: "lower", exact: true},
	{name: "storage.checkpoint_mb", unit: "MB", better: "lower", exact: true},
	{name: "checkpoint.invocations", unit: "count", better: "lower", exact: true},
	{name: "net.msgs_sent", unit: "count", better: "lower", exact: true},
	{name: "runtime.gc_cpu_s", unit: "s", better: "lower"},
	{name: "runtime.gc_cycles", unit: "cycles", better: "lower"},
	{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
	{name: "runtime.alloc_per_task_kb", unit: "KB", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.untraced_jobs_per_s", unit: "1/s", better: "higher"},
}
