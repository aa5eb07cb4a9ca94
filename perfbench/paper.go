package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/system"
	"repro/internal/workload"
)

// paperCycles pins every (workload, scheme) pair's simulated cycles, in
// system.Schemes() order (DRAM, HMC, ART, ARF-tid, ARF-addr), under
// default configurations and the sequential kernel. The simulator is
// deterministic, so any difference is a behaviour change. At ScaleSmall the
// Fig 5.1a pairs total 9,443,083 cycles.
var paperCycles = map[workload.Scale]map[string][5]uint64{
	workload.ScaleTiny: {
		"backprop":    {3156, 2706, 4786, 4332, 4786},
		"lud":         {2915, 3691, 8227, 8011, 8227},
		"pagerank":    {2575, 1292, 1683, 1681, 1683},
		"sgemm":       {2146, 1053, 12334, 10730, 12334},
		"spmv":        {2922, 948, 3202, 2992, 3202},
		"reduce":      {2436, 1019, 1488, 1242, 1488},
		"rand_reduce": {2591, 1154, 1432, 1080, 1432},
		"mac":         {3618, 1551, 3042, 2058, 3042},
		"rand_mac":    {6001, 1936, 2700, 1462, 2700},
	},
	workload.ScaleSmall: {
		"backprop":    {157100, 172286, 260702, 146382, 260702},
		"lud":         {576542, 677693, 1565627, 758603, 886817},
		"pagerank":    {82842, 41834, 68871, 52513, 55519},
		"sgemm":       {561043, 526476, 1325288, 455156, 584898},
		"spmv":        {35169, 23362, 92282, 35292, 40084},
		"reduce":      {15740, 9396, 34836, 10972, 10804},
		"rand_reduce": {60526, 32422, 33826, 9104, 9236},
		"mac":         {32784, 16366, 34846, 12452, 11134},
		"rand_mac":    {125595, 66992, 33788, 10004, 9208},
	},
}

// pair is one simulation of the paper suite.
type pair struct {
	workload string
	scheme   system.Scheme
	cycles   uint64 // pinned
}

// paperSuite regenerates Fig 5.1a and Fig 5.1b: every benchmark and
// microbenchmark on every headline scheme, one simulation at a time. The
// seed only orders the pairs; a pass always runs all of them.
type paperSuite struct {
	b     *bench
	pairs []pair
}

func newPaperSuite(b *bench) (*paperSuite, error) {
	pins, ok := paperCycles[b.cfg.simScale]
	if !ok {
		return nil, fmt.Errorf("no pinned cycles at scale %s", b.cfg.simScale)
	}
	p := &paperSuite{b: b}
	for _, wl := range append(workload.Benchmarks(), workload.Microbenchmarks()...) {
		for i, s := range system.Schemes() {
			p.pairs = append(p.pairs, pair{workload: wl, scheme: s, cycles: pins[wl][i]})
		}
	}
	b.rng.Shuffle(len(p.pairs), func(i, j int) { p.pairs[i], p.pairs[j] = p.pairs[j], p.pairs[i] })
	return p, nil
}

func (p *paperSuite) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var r passResult
	start := time.Now()
	for _, pr := range p.pairs {
		if err := ctx.Err(); err != nil {
			return r, err
		}
		// Collect the previous machine first, so each simulation starts
		// from a clean heap and the peak RSS is that of the largest one
		// rather than of whichever two pairs a GC happened to straddle.
		runtime.GC()
		res, setup, err := p.runPair(ctx, tr, pr)
		r.setup += setup
		p.b.attempt(1)
		if err != nil {
			p.b.fail("%s/%s: %v", pr.workload, pr.scheme, err)
			continue
		}
		r.instr += res.Instructions
	}
	r.wall = time.Since(start)
	return r, nil
}

// runPair builds and runs one pair under its own deadline and checks its
// cycles against the pin. Verification of the final memory state happens
// inside RunCtx.
func (p *paperSuite) runPair(ctx context.Context, tr *tracer, pr pair) (*system.Results, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cfg := system.DefaultConfig(pr.scheme)
	root := tr.begin("pair "+pr.workload+"/"+pr.scheme.String(), 0)
	defer tr.end(root)

	t0 := time.Now()
	sp := tr.begin("system.New", root)
	sys, err := system.New(cfg, pr.workload, p.b.cfg.simScale)
	tr.end(sp)
	setup := time.Since(t0)
	if err != nil {
		return nil, setup, err
	}
	t1 := time.Now()
	sp = tr.begin("system.RunCtx", root)
	res, err := sys.RunCtx(ctx)
	tr.end(sp)
	runNS := time.Since(t1)
	if err != nil {
		return nil, setup, err
	}
	if res.Cycles != pr.cycles {
		return nil, setup, fmt.Errorf("cycles %d, pinned %d", res.Cycles, pr.cycles)
	}
	if tr != nil {
		l := p.b.layer
		addResults(l, res)
		eng := sys.Engine()
		l["sim.skipped_ticks"] += float64(eng.SkippedTicks)
		l["sim.jumped_cycles"] += float64(eng.JumpedCycles)
		l["sim.run_ns"] += float64(runNS)
		l["sim.cycles"] += float64(res.Cycles)
	}
	return res, setup, nil
}

// addResults adds one simulation's per-layer counts to l.
func addResults(l map[string]float64, r *system.Results) {
	l["network.hop_bytes"] += float64(r.NetHopByte)
	l["network.movement_bytes"] += float64(r.Movement.Total())
	l["cache.l1_accesses"] += float64(r.Cache.L1Accesses)
	l["cache.l1_misses"] += float64(r.Cache.L1Misses)
	l["cache.l2_accesses"] += float64(r.Cache.L2Accesses)
	l["cache.l2_misses"] += float64(r.Cache.L2Misses)
	l["cpu.retired"] += float64(r.CoreStats.Retired)
	l["cpu.rob_full_cycles"] += float64(r.CoreStats.ROBFullCycles)
	l["cpu.mem_stalls"] += float64(r.CoreStats.MemStalls)
	l["cpu.offload_stalls"] += float64(r.CoreStats.OffloadStalls)
	l["hmc.vault_accesses"] += float64(r.VaultAcc)
	l["dram.accesses"] += float64(r.DRAMAcc)
	l["core.updates_committed"] += float64(r.Engine.UpdatesCommitted)
	l["core.operand_buf_stalls"] += float64(r.Engine.OperandBufStalls)
	l["core.flowtable_stalls"] += float64(r.Engine.FlowTableStalls)
	l["core.flows_completed"] += float64(r.Engine.FlowsCompleted)
}
