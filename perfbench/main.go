// Command perfbench is the repository's benchmark. It drives the simulator
// and the service from outside, through their public functions, on one of
// four workloads, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of an extra pass run under runtime/pprof and
// in-memory spans. README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/workload"
)

const (
	// opTimeout bounds each simulation, request and sweep, so a hang
	// counts as a failed operation instead of stalling the run.
	opTimeout = 60 * time.Second
	// runBudget bounds the whole run; the benchmark must exit within 180 s
	// of starting, and operations still running at this point fail.
	runBudget = 165 * time.Second
	// minTracedTime is how long traced passes repeat so a short pass still
	// gives the profile enough samples.
	minTracedTime = 3 * time.Second
	// workDir holds scratch files (serve stores, spans) under the checkout.
	workDir = ".bench_build"
)

// config is one run's settings. The command line sets the first four; the
// sizes are fixed for the benchmark and shrunk by the self-test.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	slots         int            // client goroutines and simulation slots
	simScale      workload.Scale // paper-suite and sweep-prefix inputs
	serveRequests int            // requests in one serve pass
	serveSeeds    int            // Config.Seed values per (workload, scheme)
	setupReps     int            // set-ups timed by sweep-prefix
	minTraced     time.Duration  // traced passes repeat until this long
}

func defaultConfig() config {
	return config{
		slots:         min(runtime.NumCPU(), 2),
		simScale:      workload.ScaleSmall,
		serveRequests: 2400,
		serveSeeds:    6,
		setupReps:     9,
		minTraced:     minTracedTime,
	}
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-suite", "serve-mix", "sweep-prefix", "serve-cluster"}

// workloads builds each workload's runner. warmUp marks workloads whose
// passes are short enough that the first one, run while the heap grows and
// connections open, reads slower than the rest: it runs and is checked, but
// only later passes are measured. A long-running server or sweep process
// pays that cost once; a paper-suite pass is long enough to absorb it.
var workloads = map[string]struct {
	make   func(b *bench) (runner, error)
	warmUp bool
}{
	"paper-suite":   {func(b *bench) (runner, error) { return newPaperSuite(b) }, false},
	"serve-mix":     {func(b *bench) (runner, error) { return newServe(b, false) }, true},
	"sweep-prefix":  {func(b *bench) (runner, error) { return newSweepPrefix(b) }, true},
	"serve-cluster": {func(b *bench) (runner, error) { return newServe(b, true) }, true},
}

// passResult is what one pass of a workload measured.
type passResult struct {
	wall  time.Duration // the pass's work, set-up excluded
	setup time.Duration // set-up inside this pass (0 if none)
	instr uint64        // simulated instructions the pass completed
	// Request latencies by class (serve workloads).
	cold, cached []time.Duration
}

// runner is one workload.
type runner interface {
	// pass runs one measured pass; tr is nil for untraced passes.
	pass(ctx context.Context, tr *tracer) (passResult, error)
}

// checker is implemented by workloads with an untimed correctness check
// after their passes.
type checker interface {
	check(ctx context.Context) error
}

// prober is implemented by workloads that take untimed per-layer probes
// after their traced passes; the values are reported as they are.
type prober interface {
	probe(ctx context.Context, tr *tracer) (map[string]float64, error)
}

// bench holds one run's shared state.
type bench struct {
	cfg config
	rng *rand.Rand

	attempted, failed atomic.Int64
	mu                sync.Mutex // guards problems, and layer while clients write it
	problems          []string

	setups []time.Duration    // extra set-up samples, beside per-pass ones
	layer  map[string]float64 // per-layer sums over traced passes
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), layer: map[string]float64{}}
}

func (b *bench) attempt(n int) { b.attempted.Add(int64(n)) }

// fail counts one failed operation and keeps its reason for stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// passes runs passes of r until d has elapsed, at least one. Every pass
// starts after a GC so one pass's garbage is not collected in the next.
func (b *bench) passes(ctx context.Context, r runner, d time.Duration, tr *tracer) ([]passResult, []memDelta, error) {
	var out []passResult
	var mem []memDelta
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return out, mem, err
		}
		runtime.GC()
		m0 := readMem()
		res, err := r.pass(ctx, tr)
		if err != nil {
			return out, mem, err
		}
		mem = append(mem, readMem().sub(m0))
		out = append(out, res)
	}
	return out, mem, nil
}

// memDelta is allocator and GC activity over an interval.
type memDelta struct {
	allocBytes, mallocs, numGC float64
	gcCPU, totalCPU            float64 // seconds, from runtime/metrics
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	m := memDelta{allocBytes: float64(ms.TotalAlloc), mallocs: float64(ms.Mallocs), numGC: float64(ms.NumGC)}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.totalCPU = s[1].Value.Float64()
	}
	return m
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{
		allocBytes: m.allocBytes - o.allocBytes, mallocs: m.mallocs - o.mallocs, numGC: m.numGC - o.numGC,
		gcCPU: m.gcCPU - o.gcCPU, totalCPU: m.totalCPU - o.totalCPU,
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// run executes one benchmark run and builds its report. It also returns
// the wall time of each untraced pass, for the metadata line.
func run(ctx context.Context, cfg config) (*report, []float64, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	b := newBench(cfg)
	r, err := w.make(b)
	if err != nil {
		return nil, nil, err
	}
	if w.warmUp {
		if _, err := r.pass(ctx, nil); err != nil {
			return nil, nil, err
		}
	}
	res, mem, err := b.passes(ctx, r, cfg.seconds, nil)
	if err != nil && len(res) == 0 {
		return nil, nil, err
	}
	var walls []float64
	for _, p := range res {
		walls = append(walls, p.wall.Seconds())
	}
	if c, ok := r.(checker); ok && ctx.Err() == nil {
		if err := c.check(ctx); err != nil {
			return nil, nil, err
		}
	}
	var values map[string]float64
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		values, err = b.traced(ctx, r, res)
		if err != nil {
			return nil, nil, err
		}
	} else {
		values = b.endToEnd(res, mem)
	}
	if err := ctx.Err(); err != nil {
		b.fail("run budget exhausted: %v", err)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	if attempted == 0 {
		return nil, nil, errors.New("no operation was attempted")
	}
	if cfg.trace {
		values["failed_frac"] = float64(failed) / float64(attempted)
	}
	m, err := fill(defs, values, !cfg.trace)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, walls, nil
}

// endToEnd summarises untraced passes: medians over passes.
func (b *bench) endToEnd(res []passResult, mem []memDelta) map[string]float64 {
	var wall, rate, setup, alloc []float64
	for i, r := range res {
		wall = append(wall, r.wall.Seconds())
		rate = append(rate, float64(r.instr)/1e6/r.wall.Seconds())
		if r.setup > 0 {
			setup = append(setup, r.setup.Seconds())
		}
		alloc = append(alloc, mem[i].allocBytes/1e6)
	}
	setup = append(setup, durationsToSeconds(b.setups)...)
	return map[string]float64{
		"wall_s":           median(wall),
		"sim_minstr_per_s": median(rate),
		"setup_s":          median(setup),
		"alloc_mb":         median(alloc),
		"peak_rss_mb":      peakRSSMB(),
	}
}

// traced runs the traced passes after the untraced ones (base) and derives
// every per-layer metric, per pass.
func (b *bench) traced(ctx context.Context, r runner, base []passResult) (map[string]float64, error) {
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	res, mem, perr := b.passes(ctx, r, b.cfg.minTraced, tr)
	attr, err := prof.stop()
	if perr != nil && len(res) == 0 {
		return nil, perr
	}
	if err != nil {
		return nil, err
	}
	n := float64(len(res))
	v := map[string]float64{}
	for _, d := range perLayer {
		if x, ok := b.layer[d.name]; ok {
			v[d.name] = x / n
		}
	}
	if p, ok := r.(prober); ok && ctx.Err() == nil {
		probed, err := p.probe(ctx, tr)
		if err != nil {
			return nil, err
		}
		for name, x := range probed {
			v[name] = x
		}
	}
	for mod, sec := range attr.self {
		name := mod + ".self_s"
		if mod == "json" {
			name = "service.json_self_s"
		}
		v[name] = sec / n
	}
	v["store.put_cum_s"] = attr.cum["store.put"] / n
	v["system.new_cpu_s"] = attr.cum["system.new"] / n
	v["trace.profile_cpu_s"] = attr.total / n
	v["system.new_s"] = tr.total("system.New") / n
	v["system.run_s"] = tr.total("system.RunCtx") / n
	if cyc := b.layer["sim.cycles"]; cyc > 0 {
		v["sim.host_ns_per_cycle"] = b.layer["sim.run_ns"] / cyc
	}
	var gcCPU, totalCPU, allocs, gcs float64
	for _, m := range mem {
		gcCPU += m.gcCPU
		totalCPU += m.totalCPU
		allocs += m.mallocs
		gcs += m.numGC
	}
	if totalCPU > 0 {
		v["go.gc_cpu_fraction"] = gcCPU / totalCPU
	}
	v["go.mallocs"] = allocs / n
	v["go.num_gc"] = gcs / n
	var tw, bw []float64
	for _, p := range res {
		tw = append(tw, p.wall.Seconds())
	}
	for _, p := range base {
		bw = append(bw, p.wall.Seconds())
	}
	v["trace.overhead_pct"] = (median(tw)/median(bw) - 1) * 100
	serveLatencies(v, base)
	if err := os.MkdirAll(workDir, 0o755); err == nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", b.cfg.workload, b.cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return v, nil
}

// serveLatencies reports request latency by class over the untraced passes
// (zero for workloads without requests).
func serveLatencies(v map[string]float64, base []passResult) {
	var cold, cached []time.Duration
	var wall []float64
	for _, p := range base {
		cold = append(cold, p.cold...)
		cached = append(cached, p.cached...)
		wall = append(wall, p.wall.Seconds())
	}
	if len(cold)+len(cached) == 0 {
		return
	}
	reqs := len(base[0].cold) + len(base[0].cached) // every pass sends the same sequence
	v["service.run_cold_p50_ms"] = percentile(cold, 0.5)
	v["service.run_cold_p99_ms"] = percentile(cold, 0.99)
	v["service.run_cached_p50_ms"] = percentile(cached, 0.5)
	v["service.run_cached_p99_ms"] = percentile(cached, 0.99)
	v["service.serve_rps"] = float64(reqs) / median(wall)
}

// meta is the host and run metadata printed before the result line.
func meta(cfg config) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"kernel":     "sequential",
		"slots":      cfg.slots,
		"sim_scale":  cfg.simScale.String(),
	}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	secs := flag.Float64("seconds", 16, "measure whole passes until this many seconds have passed (at least one pass)")
	traceFlag := flag.Int("trace", 0, "1 runs an extra traced pass and reports per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traceFlag != 0
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep, walls, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info := meta(cfg)
	info["pass_wall_s"] = walls
	mb, err := json.Marshal(info)
	if err == nil {
		fmt.Println("meta", string(mb))
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
