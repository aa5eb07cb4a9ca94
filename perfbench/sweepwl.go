package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// sweepCycles pins each flowtable point's cycles by (scheme, are.max_flows).
var sweepCycles = map[workload.Scale]map[[2]string]uint64{
	workload.ScaleTiny: {
		{"ARF-tid", "64"}: 8011, {"ARF-addr", "64"}: 8227,
		{"ARF-tid", "96"}: 8011, {"ARF-addr", "96"}: 8227,
		{"ARF-tid", "128"}: 8011, {"ARF-addr", "128"}: 8227,
		{"ARF-tid", "192"}: 8011, {"ARF-addr", "192"}: 8227,
		{"ARF-tid", "256"}: 8011, {"ARF-addr", "256"}: 8227,
	},
	workload.ScaleSmall: {
		{"ARF-tid", "64"}: 758603, {"ARF-addr", "64"}: 886817,
		{"ARF-tid", "96"}: 758603, {"ARF-addr", "96"}: 886817,
		{"ARF-tid", "128"}: 758603, {"ARF-addr", "128"}: 886817,
		{"ARF-tid", "192"}: 758603, {"ARF-addr", "192"}: 886817,
		{"ARF-tid", "256"}: 758603, {"ARF-addr", "256"}: 886817,
	},
}

// sweepPrefix runs the built-in flowtable study through
// sweep.RunPrefixShared with in-memory checkpoints: per scheme one leader
// simulates to the shared-prefix cycle and every other are.max_flows value
// forks from its snapshot.
type sweepPrefix struct {
	b     *bench
	grid  sweep.Grid
	pins  map[[2]string]uint64
	first *sweep.Result // the first pass's points; later passes must match
}

func newSweepPrefix(b *bench) (*sweepPrefix, error) {
	pins, ok := sweepCycles[b.cfg.simScale]
	if !ok {
		return nil, fmt.Errorf("no pinned sweep cycles at scale %s", b.cfg.simScale)
	}
	s := &sweepPrefix{b: b, grid: sweep.FlowTableStudy(b.cfg.simScale), pins: pins}
	// Set-up is building the study's machines, which the sweep does out of
	// sight: build them once untimed, then time a few builds and report the
	// median.
	for i := -1; i < b.cfg.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, sch := range s.grid.Schemes {
			cfg := system.DefaultConfig(sch)
			s.grid.Axes[0].Values[0].Apply(&cfg)
			if _, err := system.New(cfg, s.grid.Workloads[0], s.grid.Scale); err != nil {
				return nil, err
			}
		}
		if i >= 0 {
			b.setups = append(b.setups, time.Since(t0))
		}
	}
	return s, nil
}

func (s *sweepPrefix) pass(ctx context.Context, tr *tracer) (passResult, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	n := s.grid.Size()
	s.b.attempt(n)
	start := time.Now()
	sp := tr.begin("sweep.RunPrefixShared", 0)
	res, st, err := sweep.RunPrefixShared(ctx, s.grid, sweep.NewBudget(s.b.cfg.slots), nil)
	tr.end(sp)
	wall := time.Since(start)
	if err != nil {
		for i := 0; i < n; i++ {
			s.b.fail("flowtable sweep: %v", err)
		}
		return passResult{}, ctx.Err()
	}
	var r passResult
	r.wall = wall
	for i, p := range res.Points {
		r.instr += p.Instructions
		if err := s.checkPoint(i, p); err != nil {
			s.b.fail("flowtable point %d %s/%v: %v", i, p.Scheme, p.Coords, err)
		}
	}
	if len(res.Points) != n {
		s.b.fail("flowtable sweep returned %d points, want %d", len(res.Points), n)
	}
	if s.first == nil {
		s.first = res
	}
	if tr != nil {
		l := s.b.layer
		l["sweep.leader_runs"] += float64(st.LeaderRuns)
		l["sweep.fork_resumes"] += float64(st.ForkResumes)
		l["sweep.cold_fallbacks"] += float64(st.ColdFallbacks)
		if forks := n - st.LeaderRuns; forks > 0 {
			l["sweep.fork_ratio"] += float64(st.ForkResumes) / float64(forks)
		}
		for _, p := range res.Points {
			l["core.flowtable_stalls"] += float64(p.FlowTableStalls)
			l["core.operand_buf_stalls"] += float64(p.OperandBufStalls)
			l["network.movement_bytes"] += float64(p.MovementBytes)
			l["cpu.retired"] += float64(p.Instructions)
		}
	}
	return r, nil
}

// checkPoint compares a point with its pin and with the first pass.
func (s *sweepPrefix) checkPoint(i int, p sweep.Point) error {
	if len(p.Coords) != 1 {
		return fmt.Errorf("coords %v", p.Coords)
	}
	if want := s.pins[[2]string{p.Scheme, p.Coords[0]}]; p.Cycles != want {
		return fmt.Errorf("cycles %d, pinned %d", p.Cycles, want)
	}
	if s.first != nil && i < len(s.first.Points) && !reflect.DeepEqual(p, s.first.Points[i]) {
		return fmt.Errorf("differs from the first pass")
	}
	return nil
}

// check runs a seeded sample of the grid cold through sweep.Run, outside
// timing, and requires the prefix-shared points to equal it field for
// field: one scheme at two are.max_flows values, one of them the family
// leader's (the smallest) when the seed picks it.
func (s *sweepPrefix) check(ctx context.Context) error {
	if s.first == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	sub := s.grid
	sub.Workers = s.b.cfg.slots
	sub.Schemes = []system.Scheme{s.grid.Schemes[s.b.rng.Intn(len(s.grid.Schemes))]}
	vals := s.grid.Axes[0].Values
	pick := s.b.rng.Perm(len(vals))[:2]
	if pick[0] > pick[1] {
		pick[0], pick[1] = pick[1], pick[0]
	}
	sub.Axes = []sweep.Axis{{Name: s.grid.Axes[0].Name, Values: []sweep.Value{vals[pick[0]], vals[pick[1]]}}}
	s.b.attempt(sub.Size())
	cold, err := sweep.Run(ctx, sub)
	if err != nil {
		for i := 0; i < sub.Size(); i++ {
			s.b.fail("cold flowtable sample: %v", err)
		}
		return nil
	}
	for _, c := range cold.Points {
		var found bool
		for _, p := range s.first.Points {
			if p.Scheme == c.Scheme && reflect.DeepEqual(p.Coords, c.Coords) {
				found = true
				c.Index = p.Index
				if !reflect.DeepEqual(p, c) {
					s.b.fail("flowtable point %s/%v differs from a cold sweep.Run", c.Scheme, c.Coords)
				}
			}
		}
		if !found {
			s.b.fail("cold flowtable point %s/%v missing from the prefix-shared sweep", c.Scheme, c.Coords)
		}
	}
	return nil
}

// probe times Snapshot and Restore on the study's first family outside
// the profiled passes: a leader runs to the prefix cycle, its machine is
// snapshotted a few times, and fresh machines restore the snapshot.
func (s *sweepPrefix) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	cfg := system.DefaultConfig(s.grid.Schemes[0])
	s.grid.Axes[0].Values[0].Apply(&cfg)
	wl, scale := s.grid.Workloads[0], s.grid.Scale
	sys, err := system.New(cfg, wl, scale)
	if err != nil {
		return nil, err
	}
	snap, err := sys.RunToCheckpoint(ctx, s.grid.PrefixCycle, nil)
	if err != nil || snap == nil {
		return nil, fmt.Errorf("checkpointing the flowtable leader: %v", err)
	}
	const reps = 3
	buf := make([]byte, 0, len(snap))
	for i := 0; i < reps; i++ {
		sp := tr.begin("System.Snapshot", 0)
		buf = sys.Snapshot(buf[:0])
		tr.end(sp)
	}
	for i := 0; i < reps; i++ {
		fresh, err := system.New(cfg, wl, scale)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("System.Restore", 0)
		err = fresh.Restore(snap)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("restoring the flowtable checkpoint: %w", err)
		}
	}
	return map[string]float64{
		"system.snapshot_bytes": float64(len(snap)),
		"system.snapshot_ms":    median(tr.durations("System.Snapshot")) * 1e3,
		"system.restore_ms":     median(tr.durations("System.Restore")) * 1e3,
	}, nil
}
