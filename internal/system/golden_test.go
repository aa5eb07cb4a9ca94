package system_test

import (
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// TestGoldenCycleCounts pins the simulated cycle and instruction counts of
// every scheme × every suite workload (the five benchmarks and four
// microbenchmarks) at ScaleTiny — a scheme-coverage golden matrix. The
// backprop and mac rows were captured from the plain lockstep kernel before
// the idle-aware scheduler landed (PR 1); the remaining rows extend the
// matrix under the same kernel so a refactor can't silently perturb any
// scheme on any workload. Determinism is part of the machine definition:
// the idle-skip machinery, the fabric occupancy counters and every future
// performance change must keep these values bit-identical. Run() also
// verifies each workload's final memory state against a host-computed
// reference, so a pass covers functional correctness too.
//
// Each row also pins the machine-wide core stall counters. The idle-aware
// kernel credits them in bulk for the cycles it skips (fences, a full ROB,
// a refused pending instruction), so a bulk-credit bug that leaves cycles
// and instructions intact still shows up here.
//
// Refreshing these values is a machine-definition change: regenerate only
// when a PR deliberately alters simulated timing, and say so in DESIGN.md.
// Last regenerated for two timing-model changes (DESIGN.md "Timing rules
// from the sharded-kernel trial"): 1-cycle credit turnaround on fabric
// links and next-cycle barrier release.
func TestGoldenCycleCounts(t *testing.T) {
	// stalls sums four cpu.Stats counters over every core.
	type stalls struct{ mem, offload, robFull, fence uint64 }
	golden := []struct {
		workload string
		scheme   system.Scheme
		cycles   uint64
		insts    uint64
		stalls   stalls
	}{
		{"backprop", system.SchemeDRAM, 3156, 5752, stalls{21455, 0, 3374, 20284}},
		{"backprop", system.SchemeHMC, 2706, 5752, stalls{16765, 0, 3869, 14856}},
		{"backprop", system.SchemeART, 4786, 4216, stalls{12662, 6419, 63, 53358}},
		{"backprop", system.SchemeARFtid, 4332, 4216, stalls{12637, 6211, 75, 46254}},
		{"backprop", system.SchemeARFaddr, 4786, 4216, stalls{12662, 6419, 63, 53358}},
		{"backprop", system.SchemeARFtidAdaptive, 4332, 4216, stalls{12637, 6211, 75, 46254}},
		{"backprop", system.SchemeARFea, 4786, 4216, stalls{12662, 6419, 63, 53358}},
		{"lud", system.SchemeDRAM, 2915, 5880, stalls{4049, 0, 5640, 35663}},
		{"lud", system.SchemeHMC, 3691, 5880, stalls{4936, 0, 7622, 45193}},
		{"lud", system.SchemeART, 8227, 4344, stalls{5434, 9312, 4627, 111379}},
		{"lud", system.SchemeARFtid, 8011, 4344, stalls{5434, 7708, 4627, 109527}},
		{"lud", system.SchemeARFaddr, 8227, 4344, stalls{5434, 9312, 4627, 111379}},
		{"lud", system.SchemeARFtidAdaptive, 8011, 4344, stalls{5434, 7708, 4627, 109527}},
		{"lud", system.SchemeARFea, 8227, 4344, stalls{5434, 9312, 4627, 111379}},
		{"pagerank", system.SchemeDRAM, 2575, 1804, stalls{874, 0, 23132, 4474}},
		{"pagerank", system.SchemeHMC, 1292, 1804, stalls{1192, 0, 6516, 1113}},
		{"pagerank", system.SchemeART, 1683, 1740, stalls{0, 0, 6516, 10105}},
		{"pagerank", system.SchemeARFtid, 1681, 1740, stalls{0, 0, 6516, 10073}},
		{"pagerank", system.SchemeARFaddr, 1683, 1740, stalls{0, 0, 6516, 10105}},
		{"pagerank", system.SchemeARFtidAdaptive, 1681, 1740, stalls{0, 0, 6516, 10073}},
		{"pagerank", system.SchemeARFea, 1683, 1740, stalls{0, 0, 6516, 10105}},
		{"sgemm", system.SchemeDRAM, 2146, 8784, stalls{8121, 0, 14663, 0}},
		{"sgemm", system.SchemeHMC, 1053, 8784, stalls{3728, 0, 6153, 0}},
		{"sgemm", system.SchemeART, 12334, 3600, stalls{0, 22695, 0, 120715}},
		{"sgemm", system.SchemeARFtid, 10730, 3600, stalls{0, 11361, 0, 96500}},
		{"sgemm", system.SchemeARFaddr, 12334, 3600, stalls{0, 22695, 0, 120715}},
		{"sgemm", system.SchemeARFtidAdaptive, 10730, 3600, stalls{0, 11361, 0, 96500}},
		{"sgemm", system.SchemeARFea, 12334, 3600, stalls{0, 22695, 0, 120715}},
		{"spmv", system.SchemeDRAM, 2922, 1880, stalls{1834, 0, 23169, 0}},
		{"spmv", system.SchemeHMC, 948, 1880, stalls{2365, 0, 7105, 0}},
		{"spmv", system.SchemeART, 3202, 956, stalls{0, 10922, 676, 29332}},
		{"spmv", system.SchemeARFtid, 2992, 956, stalls{0, 766, 1575, 37190}},
		{"spmv", system.SchemeARFaddr, 3202, 956, stalls{0, 10922, 676, 29332}},
		{"spmv", system.SchemeARFtidAdaptive, 2992, 956, stalls{0, 766, 1575, 37190}},
		{"spmv", system.SchemeARFea, 3202, 956, stalls{0, 10922, 676, 29332}},
		{"reduce", system.SchemeDRAM, 2436, 1552, stalls{0, 0, 18428, 0}},
		{"reduce", system.SchemeHMC, 1019, 1552, stalls{0, 0, 4866, 0}},
		{"reduce", system.SchemeART, 1488, 1040, stalls{0, 8032, 0, 15696}},
		{"reduce", system.SchemeARFtid, 1242, 1040, stalls{0, 2131, 0, 17632}},
		{"reduce", system.SchemeARFaddr, 1488, 1040, stalls{0, 8032, 0, 15696}},
		{"reduce", system.SchemeARFtidAdaptive, 1242, 1040, stalls{0, 2131, 0, 17632}},
		{"reduce", system.SchemeARFea, 1488, 1040, stalls{0, 8032, 0, 15696}},
		{"rand_reduce", system.SchemeDRAM, 2591, 1552, stalls{0, 0, 27756, 0}},
		{"rand_reduce", system.SchemeHMC, 1154, 1552, stalls{0, 0, 7361, 0}},
		{"rand_reduce", system.SchemeART, 1432, 1040, stalls{0, 7900, 0, 14928}},
		{"rand_reduce", system.SchemeARFtid, 1080, 1040, stalls{0, 1559, 0, 15621}},
		{"rand_reduce", system.SchemeARFaddr, 1432, 1040, stalls{0, 7900, 0, 14928}},
		{"rand_reduce", system.SchemeARFtidAdaptive, 1080, 1040, stalls{0, 1559, 0, 15621}},
		{"rand_reduce", system.SchemeARFea, 1432, 1040, stalls{0, 7900, 0, 14928}},
		{"mac", system.SchemeDRAM, 3618, 2576, stalls{0, 0, 31718, 0}},
		{"mac", system.SchemeHMC, 1551, 2576, stalls{0, 0, 13303, 0}},
		{"mac", system.SchemeART, 3042, 1040, stalls{0, 17882, 0, 30710}},
		{"mac", system.SchemeARFtid, 2058, 1040, stalls{0, 2991, 0, 29828}},
		{"mac", system.SchemeARFaddr, 3042, 1040, stalls{0, 17882, 0, 30710}},
		{"mac", system.SchemeARFtidAdaptive, 2058, 1040, stalls{0, 2991, 0, 29828}},
		{"mac", system.SchemeARFea, 3042, 1040, stalls{0, 17882, 0, 30710}},
		{"rand_mac", system.SchemeDRAM, 6001, 2576, stalls{0, 0, 61662, 0}},
		{"rand_mac", system.SchemeHMC, 1936, 2576, stalls{0, 0, 20678, 0}},
		{"rand_mac", system.SchemeART, 2700, 1040, stalls{0, 14454, 0, 28664}},
		{"rand_mac", system.SchemeARFtid, 1462, 1040, stalls{0, 1591, 0, 21704}},
		{"rand_mac", system.SchemeARFaddr, 2700, 1040, stalls{0, 14454, 0, 28664}},
		{"rand_mac", system.SchemeARFtidAdaptive, 1462, 1040, stalls{0, 1591, 0, 21704}},
		{"rand_mac", system.SchemeARFea, 2700, 1040, stalls{0, 14454, 0, 28664}},
	}
	// The matrix must stay total: every scheme × every suite workload.
	wls := append(append([]string{}, workload.Benchmarks()...), workload.Microbenchmarks()...)
	if want := len(wls) * len(system.AllSchemes()); len(golden) != want {
		t.Fatalf("golden matrix has %d entries, want %d (schemes × suite workloads)", len(golden), want)
	}
	for _, g := range golden {
		g := g
		t.Run(g.workload+"/"+g.scheme.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := system.New(system.DefaultConfig(g.scheme), g.workload, workload.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != g.cycles {
				t.Errorf("cycles = %d, want golden %d (simulated timing diverged from the lockstep kernel)", res.Cycles, g.cycles)
			}
			if res.Instructions != g.insts {
				t.Errorf("instructions = %d, want golden %d", res.Instructions, g.insts)
			}
			var got stalls
			for _, st := range sys.CoreStats() {
				got.mem += st.MemStalls
				got.offload += st.OffloadStalls
				got.robFull += st.ROBFullCycles
				got.fence += st.FenceCycles
			}
			if got != g.stalls {
				t.Errorf("stalls {mem offload robFull fence} = %+v, want golden %+v", got, g.stalls)
			}
		})
	}
}
