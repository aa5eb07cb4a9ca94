package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's whole vocabulary; BENCHMARK.json repeats them and
// the self-test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them, so each is defined per "pass" of its workload (see
// README.md) and none is ever zero.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by a traced run (--trace 1), named after the
// repository's modules. A layer a workload does not exercise, or cannot be
// observed from outside the program on that workload, reports 0.
var perLayer = []metricDef{
	{"network.self_s", "s"},
	{"network.hop_bytes", "bytes"},
	{"network.movement_bytes", "bytes"},
	{"sim.self_s", "s"},
	{"sim.skipped_ticks", "count"},
	{"sim.jumped_cycles", "cycles"},
	{"sim.host_ns_per_cycle", "ns"},
	{"cache.self_s", "s"},
	{"cache.l1_accesses", "count"},
	{"cache.l1_misses", "count"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_misses", "count"},
	{"cpu.self_s", "s"},
	{"cpu.retired", "count"},
	{"cpu.rob_full_cycles", "cycles"},
	{"cpu.mem_stalls", "count"},
	{"cpu.offload_stalls", "count"},
	{"hmc.self_s", "s"},
	{"hmc.vault_accesses", "count"},
	{"dram.self_s", "s"},
	{"dram.accesses", "count"},
	{"mem.self_s", "s"},
	{"core.self_s", "s"},
	{"core.updates_committed", "count"},
	{"core.operand_buf_stalls", "count"},
	{"core.flowtable_stalls", "count"},
	{"core.flows_completed", "count"},
	{"system.new_s", "s"},
	{"system.new_cpu_s", "s"},
	{"system.run_s", "s"},
	{"system.self_s", "s"},
	{"system.snapshot_ms", "ms"},
	{"system.restore_ms", "ms"},
	{"system.snapshot_bytes", "bytes"},
	{"workload.self_s", "s"},
	{"sweep.self_s", "s"},
	{"sweep.leader_runs", "count"},
	{"sweep.fork_resumes", "count"},
	{"sweep.cold_fallbacks", "count"},
	{"sweep.fork_ratio", "ratio"},
	{"service.self_s", "s"},
	{"service.json_self_s", "s"},
	{"service.hit_ratio", "ratio"},
	{"service.sims_started", "count"},
	{"service.queue_depth_max", "count"},
	{"service.direct_cached_us", "us"},
	{"service.run_cold_p50_ms", "ms"},
	{"service.run_cold_p99_ms", "ms"},
	{"service.run_cached_p50_ms", "ms"},
	{"service.run_cached_p99_ms", "ms"},
	{"service.serve_rps", "1/s"},
	{"store.self_s", "s"},
	{"store.put_cum_s", "s"},
	{"store.fsync_s", "s"},
	{"store.records", "count"},
	{"store.bytes_on_disk", "bytes"},
	{"store.put_failures", "count"},
	{"cluster.self_s", "s"},
	{"cluster.jobs_dispatched", "count"},
	{"cluster.jobs_redispatched", "count"},
	{"cluster.dispatch_retries", "count"},
	{"cluster.jobs_divergent", "count"},
	{"runtime.self_s", "s"},
	{"other.self_s", "s"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.num_gc", "count"},
	{"go.mallocs", "count"},
	{"trace.profile_cpu_s", "s"},
	{"trace.overhead_pct", "%"},
	{"failed_frac", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map for defs from values, rejecting a name that is
// not in defs and, when requireAll is set, a missing one.
func fill(defs []metricDef, values map[string]float64, requireAll bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := values[d.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// median returns the middle of xs (mean of the middle two), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile of ds in milliseconds, or 0 when fewer
// than ten samples lie beyond it (the highest percentile a sample supports
// is the one with at least ten samples past it).
func percentile(ds []time.Duration, q float64) float64 {
	n := len(ds)
	if n == 0 || (q > 0.5 && float64(n)*(1-q) < 10) {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e6
}

func durationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
