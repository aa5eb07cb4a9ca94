// Package activerouting is the public API of the Active-Routing
// reproduction: a full-system simulator of the HPCA 2019 / TAMU-thesis
// system "Active-Routing: Compute on the Way for Near-Data Processing".
//
// The library simulates a 16-core out-of-order CMP with a MESI cache
// hierarchy over either a DDR memory system (the DRAM baseline) or a
// 16-cube HMC dragonfly memory network whose logic layers host
// Active-Routing Engines: in-network compute units that build dynamic
// per-flow reduction trees, perform near-data processing at operand split
// points, and aggregate partial results along the tree (the paper's three-
// phase Update/Gather processing).
//
// Quick start:
//
//	res, err := activerouting.Run(activerouting.SchemeARFtid, "mac",
//		activerouting.ScaleTiny)
//	if err != nil { ... }
//	fmt.Printf("cycles=%d speedup-relevant IPC=%.2f\n", res.Cycles, res.IPC)
//
// Every run is functionally verified: reductions computed in the network
// must match a host-computed reference before results are returned.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package activerouting

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// Scheme selects the machine configuration (§5.1 of the thesis).
type Scheme = system.Scheme

// The evaluated schemes.
const (
	// SchemeDRAM is the DDR baseline: the whole program runs on the host.
	SchemeDRAM = system.SchemeDRAM
	// SchemeHMC swaps in the HMC dragonfly memory network, no offloading.
	SchemeHMC = system.SchemeHMC
	// SchemeART enables Active-Routing with one static tree per flow.
	SchemeART = system.SchemeART
	// SchemeARFtid builds a forest of trees interleaved by thread id.
	SchemeARFtid = system.SchemeARFtid
	// SchemeARFaddr builds the forest by operand address.
	SchemeARFaddr = system.SchemeARFaddr
	// SchemeARFtidAdaptive adds the §5.4 dynamic offloading knob.
	SchemeARFtidAdaptive = system.SchemeARFtidAdaptive
	// SchemeARFea is the §6 energy-aware scheduling extension.
	SchemeARFea = system.SchemeARFea
)

// Schemes returns the five headline configurations in figure order.
func Schemes() []Scheme { return system.Schemes() }

// Scale selects input sizing (inputs are proportionally scaled from the
// thesis's native sizes so runs finish in seconds; see DESIGN.md).
type Scale = workload.Scale

// Input scales.
const (
	ScaleTiny   = workload.ScaleTiny
	ScaleSmall  = workload.ScaleSmall
	ScaleMedium = workload.ScaleMedium
)

// ParseScale parses a CLI scale name ("tiny", "small", "medium").
func ParseScale(s string) (Scale, error) { return workload.ParseScale(s) }

// Config is the full machine configuration (Table 4.1).
type Config = system.Config

// DefaultConfig returns the evaluation machine for a scheme.
func DefaultConfig(s Scheme) Config { return system.DefaultConfig(s) }

// Results carries a run's measurements: cycles, IPC, the Fig 5.2 latency
// breakdown, Fig 5.3 heatmaps, Fig 5.4 data movement, and the Fig 5.5-5.7
// energy model outputs.
type Results = system.Results

// System is one assembled machine bound to one workload instance.
type System = system.System

// NewSystem builds a machine for cfg running the named workload.
func NewSystem(cfg Config, workloadName string, scale Scale) (*System, error) {
	return system.New(cfg, workloadName, scale)
}

// Run builds and runs one (scheme, workload) pair with default
// configuration, verifying the final memory state.
func Run(s Scheme, workloadName string, scale Scale) (*Results, error) {
	sys, err := system.New(system.DefaultConfig(s), workloadName, scale)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// Benchmarks lists the thesis benchmark suite (Fig 5.1a order).
func Benchmarks() []string { return workload.Benchmarks() }

// Microbenchmarks lists the microbenchmark suite (Fig 5.1b order).
func Microbenchmarks() []string { return workload.Microbenchmarks() }

// Workload is the benchmark interface for user-defined workloads; use
// NewSystemWith to run one.
type Workload = workload.Workload

// NewSystemWith builds a machine around a custom workload implementation.
func NewSystemWith(cfg Config, wl Workload) (*System, error) {
	return system.NewWith(cfg, wl)
}

// Suite is a workload × scheme cross product of runs; the experiment
// figures derive from it.
type Suite = experiments.Suite

// RunSuite executes every (workload, scheme) pair in parallel.
func RunSuite(scale Scale, workloads []string, schemes []Scheme) (*Suite, error) {
	return experiments.RunSuite(scale, workloads, schemes, nil)
}

// RunSuiteCtx is RunSuite with cancellation: the first failing run (or a
// cancelled ctx) aborts the suite promptly — queued runs never start.
func RunSuiteCtx(ctx context.Context, scale Scale, workloads []string, schemes []Scheme) (*Suite, error) {
	return experiments.RunSuiteCtx(ctx, scale, workloads, schemes, nil)
}

// Sweep types: a declarative configuration grid (axes of Config mutations ×
// workloads × schemes) executed on a bounded, cancellable worker pool. See
// cmd/arsweep for the CLI and EXPERIMENTS.md for the built-in studies.
type (
	SweepGrid   = sweep.Grid
	SweepAxis   = sweep.Axis
	SweepPoint  = sweep.Point
	SweepResult = sweep.Result
)

// RunSweep expands and executes a configuration sweep grid. Points run in
// deterministic grid order with fail-fast cancellation; each point's cycle
// count is bit-identical to a direct NewSystem+Run with the same mutated
// config.
func RunSweep(ctx context.Context, g SweepGrid) (*SweepResult, error) {
	return sweep.Run(ctx, g)
}

// SweepStudies lists the built-in study names accepted by SweepStudy.
func SweepStudies() []string { return sweep.StudyNames() }

// SweepStudy resolves a built-in study (e.g. "flowtable", "linkbw") to its
// grid at the given scale.
func SweepStudy(name string, scale Scale) (SweepGrid, error) {
	return sweep.StudyGrid(name, scale)
}

// AllSchemes returns every evaluated configuration, including the §5.4
// adaptive case study and the §6 energy-aware extension.
func AllSchemes() []Scheme { return system.AllSchemes() }

// ParseScheme parses a scheme by its figure label ("DRAM", "ARF-tid", ...),
// the inverse of Scheme.String.
func ParseScheme(name string) (Scheme, error) { return system.ParseScheme(name) }

// Service types: the simulation-as-a-service layer behind cmd/arserved — a
// sharded content-addressed result cache (key: Config.Hash() + workload +
// scheme + scale) with singleflight de-duplication and one shared worker
// budget for ad-hoc jobs, figure suites and sweeps. See DESIGN.md.
type (
	ServiceOptions = service.Options
	ServiceServer  = service.Server
	ServiceJob     = service.Job
	ServiceStats   = service.Stats
	ServiceClient  = service.Client

	ServiceRunRequest   = service.RunRequest
	ServiceRunResponse  = service.RunResponse
	ServiceSweepRequest = service.SweepRequest
)

// NewService builds an embeddable service server (cache + scheduler +
// statistics); Handler() exposes it over HTTP the way cmd/arserved does.
func NewService(opts ServiceOptions) *ServiceServer { return service.New(opts) }

// NewServiceClient builds a Go client for an arserved daemon.
func NewServiceClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// ServiceRetryPolicy bounds the client's idempotent retry loop (exponential
// backoff with jitter, honouring server Retry-After hints). Safe because
// jobs are content-addressed and the simulator deterministic: a duplicate
// submission coalesces onto the cached result instead of recomputing.
type ServiceRetryPolicy = service.RetryPolicy

// ErrServiceOverloaded is returned (as an HTTP 503 with Retry-After) when
// the daemon sheds a request that would need a new simulation while its
// queue is over -max-queue or it is draining.
var ErrServiceOverloaded = service.ErrOverloaded

// Cluster types: the fault-tolerant coordinator/worker fleet behind
// arserved -mode=coordinator / -mode=worker. The coordinator implements the
// service Executor seam — single-process arserved is the degenerate cluster
// of one in-process worker — dispatching content-addressed jobs under
// heartbeat-renewed leases, re-dispatching on worker loss, and degrading to
// cache-only service at zero live workers. See DESIGN.md "Cluster &
// supervision".
type (
	ClusterCoordinator     = cluster.Coordinator
	ClusterCoordinatorOpts = cluster.CoordinatorOptions
	ClusterWorker          = cluster.Worker
	ClusterWorkerOpts      = cluster.WorkerOptions
	ClusterStats           = service.ClusterStats
	ClusterWorkerStatus    = service.WorkerStatus
)

// NewClusterCoordinator starts a job dispatcher (plug it into
// ServiceOptions.Executor and mount its Register alongside the service
// handler); Close stops its lease janitor.
func NewClusterCoordinator(opts ClusterCoordinatorOpts) *ClusterCoordinator {
	return cluster.NewCoordinator(opts)
}

// NewClusterWorker builds a worker process that joins a coordinator,
// simulates leased jobs on a local budget, and drains gracefully.
func NewClusterWorker(opts ClusterWorkerOpts) (*ClusterWorker, error) {
	return cluster.NewWorker(opts)
}

// Result-store types: the crash-safe, content-addressed persistence layer
// behind arserved's -store flag. Append-only checksummed segment files;
// recovery quarantines torn or corrupt records and never loses an intact
// one. See DESIGN.md "Durability & failure".
type (
	ResultStore      = store.Store
	ResultStoreOpts  = store.Options
	ResultStoreStats = store.Stats
)

// OpenResultStore opens (creating if needed) a result store rooted at dir,
// recovering every intact record from a previous process lifetime.
func OpenResultStore(dir string, opts ResultStoreOpts) (*ResultStore, error) {
	return store.Open(dir, opts)
}

// ServiceFigureIDs lists the figure ids /figures/{id} serves.
func ServiceFigureIDs() []string { return service.FigureIDs() }

// PortPolicy is the coordinator's tree-rooting policy (ART vs ARF-tid vs
// ARF-addr).
type PortPolicy = core.PortPolicy

// UpdateCmd and GatherCmd are the offload commands of the Update/Gather
// ISA extension (§3.1), exposed for tests and tooling that drive the flow
// coordinator directly.
type (
	UpdateCmd = core.UpdateCmd
	GatherCmd = core.GatherCmd
)

// FlowEntry mirrors the Active Flow Table entry of Table 3.1.
type FlowEntry = core.FlowEntry
