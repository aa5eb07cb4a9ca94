// Package workload implements the thesis's evaluation workloads (§4.2):
// five benchmarks (backprop, lud, pagerank, sgemm, spmv) and four
// microbenchmarks (reduce, rand_reduce, mac, rand_mac), each in a Baseline
// variant (plain loads/stores/computes) and an Active variant using the
// Update/Gather extension, plus the adaptive-offloading variant of §5.4.
//
// Substitution note (DESIGN.md): the thesis traces real Pthread programs
// with Pin. Here each workload is an instruction-stream generator that
// reproduces the program's per-thread memory access pattern and arithmetic.
// Generators never read the simulated backing store; every value a store or
// update needs is computed from generator-private mirrors, so traces are
// independent of simulation timing, and the final memory state is checked
// against a host-computed reference after the run.
package workload

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Mode selects the program variant.
type Mode int

// Workload variants.
const (
	// ModeBaseline runs entirely on the host (DRAM and HMC schemes).
	ModeBaseline Mode = iota
	// ModeActive offloads the region of interest with Update/Gather.
	ModeActive
	// ModeAdaptive applies the §5.4 runtime knob: flows below the
	// updates-per-flow threshold run on the host.
	ModeAdaptive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeActive:
		return "active"
	case ModeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Env is the simulated process environment a workload initializes into.
type Env struct {
	Store   *mem.Store
	AS      *mem.AddrSpace
	Rand    *sim.Rand
	Threads int
}

// NewEnv builds an environment with the given thread count and seed.
func NewEnv(threads int, seed uint64) *Env {
	return &Env{
		Store:   mem.NewStore(),
		AS:      mem.NewAddrSpace(),
		Rand:    sim.NewRand(seed),
		Threads: threads,
	}
}

// Workload is one benchmark: initialization, per-thread traces, and final
// state verification.
type Workload interface {
	// Name is the benchmark's thesis name.
	Name() string
	// Init allocates and fills the workload's data structures.
	Init(env *Env)
	// Streams builds one instruction stream per thread for the mode.
	Streams(mode Mode) []isa.Stream
	// Verify checks the simulated memory state against the reference;
	// it must pass for every mode and scheme.
	Verify() error
}

// Scale selects input sizing. The thesis runs native-scale inputs on a
// multi-day simulator; these are proportionally scaled (DESIGN.md).
type Scale int

// Input scales.
const (
	// ScaleTiny is for unit tests (sub-second full-system runs).
	ScaleTiny Scale = iota
	// ScaleSmall is the default for benchmarks and experiments.
	ScaleSmall
	// ScaleMedium stresses the memory system harder (slower runs).
	ScaleMedium
)

// String names the scale the way the CLIs spell it.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale parses a CLI scale name (case-insensitive).
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small, medium)", s)
}

// F64Array is a simulated array of float64 living in the workload's
// address space.
type F64Array struct {
	Base mem.VAddr
	N    int
	env  *Env
}

// cubeStripe is the span of one full rotation of pages over the 16 cubes.
const cubeStripe = 16 * mem.PageSize

// NewF64Array allocates n float64s. Arrays spanning at least one full cube
// stripe are stripe-aligned (NUMA-conscious co-allocation): the i-th
// elements of two such arrays share a cube, which is the locality the
// thesis's near-data updates exploit (both operands resident at the commit
// cube, Fig 3.6's common case).
func NewF64Array(env *Env, n int) F64Array {
	bytes := uint64(n) * mem.WordSize
	align := uint64(mem.BlockSize)
	if bytes >= cubeStripe {
		align = cubeStripe
	}
	return F64Array{Base: env.AS.Alloc(bytes, align), N: n, env: env}
}

// At returns the virtual address of element i.
func (a F64Array) At(i int) mem.VAddr {
	if i < 0 || i >= a.N {
		panic(fmt.Sprintf("workload: index %d out of range [0,%d)", i, a.N))
	}
	return a.Base + mem.VAddr(i*mem.WordSize)
}

// Set writes element i in the backing store (initialization only).
func (a F64Array) Set(i int, v float64) {
	a.env.Store.WriteF64(a.env.AS.Translate(a.At(i)), v)
}

// Get reads element i from the backing store (verification only).
func (a F64Array) Get(i int) float64 {
	return a.env.Store.ReadF64(a.env.AS.Translate(a.At(i)))
}

// Trace builds one thread's instruction stream. Instructions are appended
// into chunks that never move: each chunk is allocated once at its final
// capacity, the first at traceChunkMin instructions and each next one
// double its predecessor up to traceChunkMax. Building a trace therefore
// copies no instruction twice, wastes at most one partly filled chunk, and
// a trace that fits the first chunk allocates what a single slice would.
type Trace struct {
	chunks [][]isa.Inst // the last chunk is the one being filled
	n      int
}

// Trace chunk sizes, in instructions.
const (
	traceChunkMin = 1 << 10
	traceChunkMax = 1 << 12
)

// Stream replays the trace in place as an isa.Stream.
func (t *Trace) Stream() isa.Stream { return isa.NewReplayStream(t.chunks) }

// push appends one instruction, opening the next chunk when the last one
// is full.
func (t *Trace) push(in isa.Inst) {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		size := traceChunkMin
		if last >= 0 {
			size = min(2*cap(t.chunks[last]), traceChunkMax)
		}
		t.chunks = append(t.chunks, make([]isa.Inst, 0, size))
		last++
	}
	t.chunks[last] = append(t.chunks[last], in)
	t.n++
}

// Ld emits a load from va.
func (t *Trace) Ld(va mem.VAddr) {
	t.push(isa.Inst{Kind: isa.KindLoad, Addr: va})
}

// St emits a store of v to va; v is written functionally at commit.
func (t *Trace) St(va mem.VAddr, v float64) {
	t.push(isa.Inst{Kind: isa.KindStore, Addr: va, Value: v})
}

// AtomicAdd emits an atomic float add of v at va.
func (t *Trace) AtomicAdd(va mem.VAddr, v float64) {
	t.push(isa.Inst{Kind: isa.KindAtomicAdd, Addr: va, Value: v})
}

// Int emits integer/address arithmetic.
func (t *Trace) Int() {
	t.push(isa.Inst{Kind: isa.KindCompute, Class: isa.ClassInt})
}

// FP emits a floating-point add-class operation.
func (t *Trace) FP() {
	t.push(isa.Inst{Kind: isa.KindCompute, Class: isa.ClassFP})
}

// FPMul emits a floating-point multiply-class operation.
func (t *Trace) FPMul() {
	t.push(isa.Inst{Kind: isa.KindCompute, Class: isa.ClassFPMul})
}

// Update emits Update(src1, src2, target, op); src2 may be 0.
func (t *Trace) Update(src1, src2, target mem.VAddr, op isa.ALUOp) {
	t.push(isa.Inst{Kind: isa.KindUpdate, Src1: src1, Src2: src2, Target: target, Op: op})
}

// UpdateVec emits a vectored update covering count consecutive element
// pairs starting at (src1, src2). The elements must share a cache block
// run on one cube (guaranteed for stripe-aligned arrays and count*8 <= 64).
func (t *Trace) UpdateVec(src1, src2, target mem.VAddr, op isa.ALUOp, count int) {
	t.push(isa.Inst{Kind: isa.KindUpdate, Src1: src1, Src2: src2, Target: target, Op: op, Count: count})
}

// UpdateMov emits Update(&src, nil, &target, mov).
func (t *Trace) UpdateMov(src, target mem.VAddr) {
	t.push(isa.Inst{Kind: isa.KindUpdate, Src1: src, Target: target, Op: isa.OpMov})
}

// UpdateConst emits Update(imm, nil, &target, const_assign).
func (t *Trace) UpdateConst(imm float64, target mem.VAddr) {
	t.push(isa.Inst{Kind: isa.KindUpdate, Target: target, Op: isa.OpConstAssign, Imm: imm})
}

// Gather emits Gather(target, numThreads).
func (t *Trace) Gather(target mem.VAddr, threads int) {
	t.push(isa.Inst{Kind: isa.KindGather, Target: target, Threads: threads})
}

// Barrier emits a thread barrier.
func (t *Trace) Barrier() {
	t.push(isa.Inst{Kind: isa.KindBarrier})
}

// Len reports the number of emitted instructions.
func (t *Trace) Len() int { return t.n }

// streamsOf converts traces to streams.
func streamsOf(traces []*Trace) []isa.Stream {
	out := make([]isa.Stream, len(traces))
	for i, t := range traces {
		out[i] = t.Stream()
	}
	return out
}

// span splits n items into thread partitions.
func span(n, threads, tid int) (lo, hi int) {
	per := (n + threads - 1) / threads
	lo = tid * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// checkClose verifies a simulated value against a reference with relative
// tolerance (in-network reduction reassociates floating point sums).
func checkClose(what string, got, want float64) error {
	diff := math.Abs(got - want)
	tol := 1e-9 + 1e-6*math.Abs(want)
	if diff > tol {
		return fmt.Errorf("workload: %s = %g, want %g (|diff| = %g)", what, got, want, diff)
	}
	return nil
}

// MaxThreads bounds the thread count a workload accepts: the simulated
// machine has 16 cores, and per-thread trace construction is linear in
// threads, so an absurd count is a caller bug rather than a bigger machine.
const MaxThreads = 1024

// New constructs a workload by thesis name. All three arguments are
// validated here — an unknown name, out-of-range scale or non-positive
// thread count is an error, never a panic — so callers assembling jobs
// from untrusted input (the service layer, fuzzers) can rely on New as
// the gate.
func New(name string, scale Scale, threads int) (Workload, error) {
	if scale < ScaleTiny || scale > ScaleMedium {
		return nil, fmt.Errorf("workload: unknown scale %d (want tiny, small, medium)", int(scale))
	}
	if threads <= 0 || threads > MaxThreads {
		return nil, fmt.Errorf("workload: thread count %d out of range [1,%d]", threads, MaxThreads)
	}
	switch name {
	case "reduce":
		return NewReduce(scale, threads, false), nil
	case "rand_reduce":
		return NewReduce(scale, threads, true), nil
	case "mac":
		return NewMAC(scale, threads, false), nil
	case "mac_vec":
		return NewMACVec(scale, threads, 8), nil
	case "rand_mac":
		return NewMAC(scale, threads, true), nil
	case "sgemm":
		return NewSGEMM(scale, threads), nil
	case "spmv":
		return NewSpMV(scale, threads), nil
	case "backprop":
		return NewBackprop(scale, threads), nil
	case "pagerank":
		return NewPageRank(scale, threads), nil
	case "lud":
		return NewLUD(scale, threads), nil
	case "lud_phase":
		return NewLUDPhase(scale, threads), nil
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
}

// Registered lists every workload name New accepts: the two figure suites
// plus the variants only individual studies use (mac_vec, lud_phase). Kept
// in sync with New's switch by TestRegisteredConstructs.
func Registered() []string {
	return []string{
		"reduce", "rand_reduce", "mac", "mac_vec", "rand_mac",
		"sgemm", "spmv", "backprop", "pagerank", "lud", "lud_phase",
	}
}

// Benchmarks lists the thesis benchmark suite (Fig 5.1a order).
func Benchmarks() []string {
	return []string{"backprop", "lud", "pagerank", "sgemm", "spmv"}
}

// Microbenchmarks lists the microbenchmark suite (Fig 5.1b order).
func Microbenchmarks() []string {
	return []string{"reduce", "rand_reduce", "mac", "rand_mac"}
}
