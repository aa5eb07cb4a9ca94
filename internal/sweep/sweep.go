// Package sweep is the configuration-sweep engine behind the thesis's
// sensitivity and ablation studies (§5.4 and the design-space grids the
// evaluation chapters imply): it expands a declarative grid of machine
// mutations × workloads × schemes into the cross product of simulation
// points and executes them on a bounded, context-cancellable worker pool
// with fail-fast error propagation and deterministic result ordering.
//
// A grid point is run exactly the way a direct system.New + Run invocation
// would run it — the engine applies the axis mutators to DefaultConfig and
// nothing else — so per-point cycle counts are bit-identical to standalone
// runs with the same configuration (pinned by TestSweepMatchesDirectRuns).
package sweep

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/system"
	"repro/internal/workload"
)

// Mutator applies one axis value to a machine configuration.
type Mutator func(cfg *system.Config)

// Value is one setting of an axis: a label for reports plus the config
// mutation it denotes.
type Value struct {
	Label string
	Apply Mutator
}

// Axis is one named sweep dimension.
type Axis struct {
	Name   string
	Values []Value
}

// Ints builds an axis over integer settings; apply stores one value into
// the config.
func Ints(name string, vals []int, apply func(cfg *system.Config, v int)) Axis {
	ax := Axis{Name: name}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, Value{
			Label: strconv.Itoa(v),
			Apply: func(cfg *system.Config) { apply(cfg, v) },
		})
	}
	return ax
}

// Grid declares a sweep: the cross product of every axis value combination
// with every (workload, scheme) pair, all at one input scale.
type Grid struct {
	Name      string
	Scale     workload.Scale
	Workloads []string
	Schemes   []system.Scheme
	Axes      []Axis
	// Workers bounds pool parallelism; 0 means GOMAXPROCS.
	Workers int
	// PrefixCycle, when nonzero, marks the cycle up to which grid points
	// whose configurations are prefix-compatible (system.Config.PrefixHash)
	// provably simulate identically. RunPrefixShared checkpoints one family
	// leader there and forks the rest from the snapshot; plain Run ignores
	// it.
	PrefixCycle uint64
}

// Size returns the number of points the grid expands to.
func (g *Grid) Size() int {
	n := len(g.Workloads) * len(g.Schemes)
	for _, ax := range g.Axes {
		n *= len(ax.Values)
	}
	return n
}

// Point is one executed grid point: its coordinates plus the measurements
// every study reports (cycles, IPC, flow-table peak, operand stalls, data
// movement, energy).
type Point struct {
	Index      int      `json:"index"`
	Coords     []string `json:"coords"` // one label per axis, grid order
	Workload   string   `json:"workload"`
	Scheme     string   `json:"scheme"`
	ConfigHash string   `json:"config_hash"`

	Cycles           uint64  `json:"cycles"`
	Instructions     uint64  `json:"instructions"`
	IPC              float64 `json:"ipc"`
	FlowPeak         int     `json:"flow_peak"`
	FlowTableStalls  uint64  `json:"flow_table_stalls"`
	OperandBufStalls uint64  `json:"operand_buf_stalls"`
	MovementBytes    uint64  `json:"movement_bytes"`
	ActiveBytes      uint64  `json:"active_bytes"`
	EnergyJ          float64 `json:"energy_j"`
	EDP              float64 `json:"edp"`
}

// Result is a completed sweep, points in deterministic grid order (axes
// outermost-first, then workload, then scheme).
type Result struct {
	Study     string   `json:"study"`
	Scale     string   `json:"scale"`
	AxisNames []string `json:"axis_names"`
	Points    []Point  `json:"points"`
}

// point is one expanded grid coordinate before execution.
type jobSpec struct {
	coords   []string
	mutators []Mutator
	wl       string
	scheme   system.Scheme
}

// expand enumerates the grid deterministically: axis values vary slowest in
// declaration order, the (workload, scheme) pair fastest.
func (g *Grid) expand() []jobSpec {
	specs := []jobSpec{{}}
	for _, ax := range g.Axes {
		var next []jobSpec
		for _, s := range specs {
			for _, v := range ax.Values {
				next = append(next, jobSpec{
					coords:   append(append([]string(nil), s.coords...), v.Label),
					mutators: append(append([]Mutator(nil), s.mutators...), v.Apply),
				})
			}
		}
		specs = next
	}
	var jobs []jobSpec
	for _, s := range specs {
		for _, wl := range g.Workloads {
			for _, sch := range g.Schemes {
				j := s
				j.wl = wl
				j.scheme = sch
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// Run executes the grid on a private worker budget sized by g.Workers. On
// the first failing point (or context cancellation) the pool cancels:
// queued points never start and the error propagates with the point's
// coordinates attached.
func Run(ctx context.Context, g Grid) (*Result, error) {
	return RunOn(ctx, g, NewBudget(g.Workers))
}

// RunOn executes the grid drawing workers from the shared budget b (nil
// means a private GOMAXPROCS-sized budget), so a sweep scheduled by the
// service layer competes for the same slots as every other job instead of
// oversubscribing the machine.
func RunOn(ctx context.Context, g Grid, b *Budget) (*Result, error) {
	if len(g.Workloads) == 0 || len(g.Schemes) == 0 {
		return nil, fmt.Errorf("sweep %s: grid needs at least one workload and one scheme", g.Name)
	}
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep %s: axis %q has no values (would expand to an empty grid)", g.Name, ax.Name)
		}
	}
	jobs := g.expand()
	// Configs are built and validated up front, so an invalid point fails
	// the sweep before any simulation starts.
	cfgs := make([]system.Config, len(jobs))
	for i, j := range jobs {
		cfg := system.DefaultConfig(j.scheme)
		for _, mut := range j.mutators {
			mut(&cfg)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep %s point %v %s/%s: %w", g.Name, j.coords, j.scheme, j.wl, err)
		}
		cfgs[i] = cfg
	}
	points := make([]Point, len(jobs))
	err := RunJobsOn(ctx, len(jobs), b, func(ctx context.Context, i int) error {
		j := jobs[i]
		cfg := cfgs[i]
		sys, err := system.New(cfg, j.wl, g.Scale)
		if err != nil {
			return fmt.Errorf("sweep %s point %v: %w", g.Name, j.coords, err)
		}
		r, err := sys.RunCtx(ctx)
		if err != nil {
			return fmt.Errorf("sweep %s point %v: %w", g.Name, j.coords, err)
		}
		points[i] = newPoint(i, j, &cfg, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Study: g.Name, Scale: g.Scale.String(), Points: points}
	for _, ax := range g.Axes {
		res.AxisNames = append(res.AxisNames, ax.Name)
	}
	return res, nil
}

// PointRunner executes one expanded grid point's simulation: cfg is the
// fully mutated, validated configuration (its Scheme field matches the
// point's scheme). Implementations must be deterministic in cfg — the grid
// engine assumes any two executions of a point produce identical Results.
type PointRunner func(ctx context.Context, cfg *system.Config, wl string, scale workload.Scale) (*system.Results, error)

// RunVia executes the grid like RunOn but delegates each point's simulation
// to run — the cluster coordinator dispatches points to remote workers this
// way, so a sweep survives worker loss without losing grid order or
// determinism. parallel bounds concurrent in-flight points (<= 0 means
// g.Workers, then GOMAXPROCS); the runner is expected to provide its own
// backpressure (a dispatcher queues on fleet capacity), so the bound only
// caps goroutines.
func RunVia(ctx context.Context, g Grid, parallel int, run PointRunner) (*Result, error) {
	if len(g.Workloads) == 0 || len(g.Schemes) == 0 {
		return nil, fmt.Errorf("sweep %s: grid needs at least one workload and one scheme", g.Name)
	}
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep %s: axis %q has no values (would expand to an empty grid)", g.Name, ax.Name)
		}
	}
	jobs := g.expand()
	cfgs := make([]system.Config, len(jobs))
	for i, j := range jobs {
		cfg := system.DefaultConfig(j.scheme)
		for _, mut := range j.mutators {
			mut(&cfg)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep %s point %v %s/%s: %w", g.Name, j.coords, j.scheme, j.wl, err)
		}
		cfgs[i] = cfg
	}
	if parallel <= 0 {
		parallel = g.Workers
	}
	points := make([]Point, len(jobs))
	err := RunJobsOn(ctx, len(jobs), NewBudget(parallel), func(ctx context.Context, i int) error {
		j := jobs[i]
		r, err := run(ctx, &cfgs[i], j.wl, g.Scale)
		if err != nil {
			return fmt.Errorf("sweep %s point %v: %w", g.Name, j.coords, err)
		}
		points[i] = newPoint(i, j, &cfgs[i], r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Study: g.Name, Scale: g.Scale.String(), Points: points}
	for _, ax := range g.Axes {
		res.AxisNames = append(res.AxisNames, ax.Name)
	}
	return res, nil
}

// newPoint records one completed grid point's measurements.
func newPoint(i int, j jobSpec, cfg *system.Config, r *system.Results) Point {
	return Point{
		Index:            i,
		Coords:           j.coords,
		Workload:         j.wl,
		Scheme:           j.scheme.String(),
		ConfigHash:       cfg.Hash(),
		Cycles:           r.Cycles,
		Instructions:     r.Instructions,
		IPC:              r.IPC,
		FlowPeak:         r.FlowPeak,
		FlowTableStalls:  r.Engine.FlowTableStalls,
		OperandBufStalls: r.Engine.OperandBufStalls,
		MovementBytes:    r.Movement.Total(),
		ActiveBytes:      r.Movement.ActiveReq + r.Movement.ActiveResp,
		EnergyJ:          r.Energy.Total(),
		EDP:              r.EDP,
	}
}
