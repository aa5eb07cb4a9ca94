// Benchmark harness: one testing.B benchmark per table and figure of the
// thesis's evaluation (Chapter 5), plus the ablations DESIGN.md calls out.
// Each benchmark regenerates its figure's series and reports the figure's
// headline numbers as custom metrics, so `go test -bench=. -benchmem`
// reproduces the entire evaluation.
//
// Benchmarks run at ScaleTiny by default so the full suite completes in
// minutes; set AR_BENCH_SCALE=small for the paper-shaped runs the
// EXPERIMENTS.md numbers were taken from.
package activerouting

import (
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

func benchScale() workload.Scale {
	switch os.Getenv("AR_BENCH_SCALE") {
	case "small":
		return workload.ScaleSmall
	case "medium":
		return workload.ScaleMedium
	default:
		return workload.ScaleTiny
	}
}

func suite(b *testing.B, workloads []string, conf experiments.Configure) *experiments.Suite {
	b.Helper()
	s, err := experiments.RunSuite(benchScale(), workloads, system.Schemes(), conf)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable41 exercises machine construction for every scheme (the
// Table 4.1 configuration) and reports component counts.
func BenchmarkTable41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sch := range system.Schemes() {
			cfg := system.DefaultConfig(sch)
			sys, err := system.New(cfg, "reduce", workload.ScaleTiny)
			if err != nil {
				b.Fatal(err)
			}
			if sys.Engine().Components() == 0 {
				b.Fatal("empty machine")
			}
		}
	}
}

// BenchmarkFig51a regenerates Figure 5.1(a): benchmark speedup over DRAM.
func BenchmarkFig51a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Benchmarks(), nil)
		t, err := experiments.Fig51(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.GMean[3], "ARF-tid-gmean-speedup")
		b.ReportMetric(t.GMean[1], "HMC-gmean-speedup")
	}
}

// BenchmarkFig51b regenerates Figure 5.1(b): microbenchmark speedup.
func BenchmarkFig51b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Microbenchmarks(), nil)
		t, err := experiments.Fig51(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.GMean[3], "ARF-tid-gmean-speedup")
		b.ReportMetric(t.GMean[2], "ART-gmean-speedup")
	}
}

// BenchmarkFig52a regenerates Figure 5.2(a): update roundtrip latency
// breakdown for the benchmarks.
func BenchmarkFig52a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Benchmarks(), nil)
		t := experiments.Fig52(s)
		// ART's stall component is the hotspot signature the figure shows.
		b.ReportMetric(t.Stall[0][0], "ART-stall-cycles")
		b.ReportMetric(t.Stall[0][1], "ARF-tid-stall-cycles")
	}
}

// BenchmarkFig52b regenerates Figure 5.2(b) for the microbenchmarks.
func BenchmarkFig52b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Microbenchmarks(), nil)
		t := experiments.Fig52(s)
		b.ReportMetric(t.Req[0][0], "ART-req-cycles")
		b.ReportMetric(t.Req[0][1], "ARF-tid-req-cycles")
	}
}

// BenchmarkFig53 regenerates Figure 5.3: the lud stall/update/operand
// heatmaps, reporting the ARF-tid vs ARF-addr update imbalance the figure
// contrasts.
func BenchmarkFig53(b *testing.B) {
	imb := func(cells []uint64) float64 {
		var max, sum uint64
		for _, c := range cells {
			sum += c
			if c > max {
				max = c
			}
		}
		if sum == 0 {
			return 0
		}
		return float64(max) * float64(len(cells)) / float64(sum)
	}
	for i := 0; i < b.N; i++ {
		s := suite(b, []string{"lud"}, nil)
		sets := experiments.Fig53(s)
		b.ReportMetric(imb(sets[0].Updates), "ARF-tid-update-imbalance")
		b.ReportMetric(imb(sets[1].Updates), "ARF-addr-update-imbalance")
	}
}

// BenchmarkFig54 regenerates Figure 5.4: data movement normalized to HMC.
func BenchmarkFig54(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Microbenchmarks(), nil)
		t, err := experiments.Fig54(s)
		if err != nil {
			b.Fatal(err)
		}
		// mac's ARF-tid total (workload index 2, scheme index: HMC,ART,
		// ARF-tid,ARF-addr -> 2).
		b.ReportMetric(t.Total(2, 2), "mac-ARF-tid-movement-vs-HMC")
	}
}

// BenchmarkFig55 regenerates Figure 5.5: normalized power breakdown.
func BenchmarkFig55(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Microbenchmarks(), nil)
		t, err := experiments.Fig55to57(s, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Network[2][3], "mac-ARF-tid-net-power-vs-DRAM")
	}
}

// BenchmarkFig56 regenerates Figure 5.6: normalized energy breakdown.
func BenchmarkFig56(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Microbenchmarks(), nil)
		t, err := experiments.Fig55to57(s, false)
		if err != nil {
			b.Fatal(err)
		}
		total := t.Cache[2][3] + t.Memory[2][3] + t.Network[2][3]
		b.ReportMetric(total, "mac-ARF-tid-energy-vs-DRAM")
	}
}

// BenchmarkFig57 regenerates Figure 5.7: normalized EDP (the thesis's
// headline efficiency claim: 75-88% average EDP reduction).
func BenchmarkFig57(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suite(b, workload.Microbenchmarks(), nil)
		t, err := experiments.Fig55to57(s, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.EDPGM[3], "ARF-tid-gmean-EDP-vs-DRAM")
		b.ReportMetric(t.EDPGM[1], "HMC-gmean-EDP-vs-DRAM")
	}
}

// BenchmarkFig58 regenerates Figure 5.8: the dynamic-offloading case study.
func BenchmarkFig58(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig58(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[1], "ARF-tid-speedup-vs-HMC")
		b.ReportMetric(res.Speedup[2], "adaptive-speedup-vs-HMC")
	}
}

// --- Ablations (DESIGN.md) ----------------------------------------------

func runOne(b *testing.B, cfg system.Config, wl string) *system.Results {
	b.Helper()
	sys, err := system.New(cfg, wl, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationOperandBuffers sweeps the ARE operand buffer pool: the
// backpressure (Fig 5.2's stall component) sensitivity.
func BenchmarkAblationOperandBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bufs := range []int{4, 32} {
			cfg := system.DefaultConfig(system.SchemeARFtid)
			cfg.ARE.OperandBufs = bufs
			res := runOne(b, cfg, "mac")
			if bufs == 4 {
				b.ReportMetric(float64(res.Cycles), "cycles-4-bufs")
			} else {
				b.ReportMetric(float64(res.Cycles), "cycles-32-bufs")
			}
		}
	}
}

// BenchmarkAblationFlowTable sweeps the Active Flow Table capacity. The
// sweep stays above the workloads' concurrency bound (threads x gather
// batch = 128 flows): below it, table-full stalls can block the gather
// that would free the entries (DESIGN.md); "no sensitivity above the
// bound" is the point of the probe.
func BenchmarkAblationFlowTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, flows := range []int{160, 256} {
			cfg := system.DefaultConfig(system.SchemeARFtid)
			cfg.ARE.MaxFlows = flows
			res := runOne(b, cfg, "sgemm")
			if flows == 160 {
				b.ReportMetric(float64(res.Cycles), "cycles-160-flows")
			} else {
				b.ReportMetric(float64(res.Cycles), "cycles-256-flows")
			}
		}
	}
}

// BenchmarkAblationTopology compares the dragonfly memory network against
// a 4x4 mesh (the unified-memory-network design choice of §2.2).
func BenchmarkAblationTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, topo := range []system.MemTopology{system.TopoDragonfly, system.TopoMesh} {
			cfg := system.DefaultConfig(system.SchemeARFtid)
			cfg.MemTopo = topo
			res := runOne(b, cfg, "rand_mac")
			if topo == system.TopoDragonfly {
				b.ReportMetric(float64(res.Cycles), "cycles-dragonfly")
			} else {
				b.ReportMetric(float64(res.Cycles), "cycles-mesh")
			}
		}
	}
}

// BenchmarkAblationBypass toggles the §3.2.3 single-operand operand-buffer
// bypass on the bypass-heavy reduce kernel.
func BenchmarkAblationBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bufs := range []int{8} {
			// The bypass matters most when buffers are scarce.
			on := system.DefaultConfig(system.SchemeARFtid)
			on.ARE.OperandBufs = bufs
			resOn := runOne(b, on, "reduce")
			b.ReportMetric(float64(resOn.Cycles), "cycles-bypass-on")
			b.ReportMetric(float64(resOn.Engine.SingleOpBypasses), "bypasses")

			off := system.DefaultConfig(system.SchemeARFtid)
			off.ARE.OperandBufs = bufs
			off.ARE.BypassOff = true
			resOff := runOne(b, off, "reduce")
			b.ReportMetric(float64(resOff.Cycles), "cycles-bypass-off")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles
// simulated per wall second) — the engineering figure of merit for the
// simulator itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := runOne(b, system.DefaultConfig(system.SchemeHMC), "mac")
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAblationUpdateGranularity compares scalar against vectored
// offloading (the §6 granularity extension): same in-network element
// count, eight times fewer Update packets.
func BenchmarkAblationUpdateGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scalar := runOne(b, system.DefaultConfig(system.SchemeARFtid), "mac")
		vec := runOne(b, system.DefaultConfig(system.SchemeARFtid), "mac_vec")
		b.ReportMetric(float64(scalar.Cycles), "cycles-scalar")
		b.ReportMetric(float64(vec.Cycles), "cycles-vec8")
		b.ReportMetric(float64(scalar.Coord.Updates), "packets-scalar")
		b.ReportMetric(float64(vec.Coord.Updates), "packets-vec8")
	}
}

// BenchmarkAblationEnergyAware compares ARF-tid against the §6 energy-aware
// port policy: hop-bytes (network energy) against runtime.
func BenchmarkAblationEnergyAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tid := runOne(b, system.DefaultConfig(system.SchemeARFtid), "rand_mac")
		ea := runOne(b, system.DefaultConfig(system.SchemeARFea), "rand_mac")
		b.ReportMetric(float64(tid.NetHopByte), "hopbytes-tid")
		b.ReportMetric(float64(ea.NetHopByte), "hopbytes-ea")
		b.ReportMetric(float64(tid.Cycles), "cycles-tid")
		b.ReportMetric(float64(ea.Cycles), "cycles-ea")
	}
}
