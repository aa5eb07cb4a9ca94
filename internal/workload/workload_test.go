package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func tinyEnv(t *testing.T) *Env { return NewEnv(4, 7) }

// drain executes a trace functionally the way the timed machine would:
// stores/atomics apply to the backing store; updates/gathers apply their
// reduction semantics eagerly (all reducing ops are order-insensitive).
// This validates the traces' functional content without the full machine.
func drain(t *testing.T, env *Env, streams []isa.Stream) {
	t.Helper()
	flows := map[mem.PAddr]*drainFlow{}
	for _, s := range streams {
		for {
			in, ok := s.Next()
			if !ok {
				break
			}
			switch in.Kind {
			case isa.KindStore:
				env.Store.WriteF64(env.AS.Translate(in.Addr), in.Value)
			case isa.KindAtomicAdd:
				pa := env.AS.Translate(in.Addr)
				env.Store.WriteF64(pa, env.Store.ReadF64(pa)+in.Value)
			case isa.KindUpdate:
				target := env.AS.Translate(in.Target)
				switch in.Op {
				case isa.OpMov:
					env.Store.WriteF64(target, env.Store.ReadF64(env.AS.Translate(in.Src1)))
				case isa.OpConstAssign:
					env.Store.WriteF64(target, in.Imm)
				default:
					f := flows[target]
					if f == nil {
						f = &drainFlow{op: in.Op, acc: in.Op.Identity()}
						flows[target] = f
					}
					count := in.Count
					if count < 1 {
						count = 1
					}
					for e := 0; e < count; e++ {
						off := mem.VAddr(e * mem.WordSize)
						a := env.Store.ReadF64(env.AS.Translate(in.Src1 + off))
						b := 0.0
						if in.Src2 != 0 {
							b = env.Store.ReadF64(env.AS.Translate(in.Src2 + off))
						}
						f.acc = f.op.Combine(f.acc, in.Op.Value(a, b))
					}
				}
			case isa.KindGather:
				target := env.AS.Translate(in.Target)
				if f, ok := flows[target]; ok {
					env.Store.WriteF64(target, f.op.Combine(env.Store.ReadF64(target), f.acc))
					delete(flows, target)
				}
			}
		}
	}
	if len(flows) != 0 {
		t.Fatalf("%d flows never gathered", len(flows))
	}
}

type drainFlow struct {
	op  isa.ALUOp
	acc float64
}

// drainLockstep executes per-thread traces with barrier synchronization:
// each thread runs to its next barrier (or the end), then all barriers
// release together. Phase ordering across threads therefore matches the
// timed machine, which matters for workloads (lud, backprop) whose later
// phases overwrite earlier phases' addresses.
func drainLockstep(t *testing.T, env *Env, streams []isa.Stream) {
	t.Helper()
	insts := make([][]isa.Inst, len(streams))
	for i, s := range streams {
		for {
			in, ok := s.Next()
			if !ok {
				break
			}
			insts[i] = append(insts[i], in)
		}
	}
	pos := make([]int, len(streams))
	for {
		progressed := false
		for ti := range insts {
			segEnd := pos[ti]
			for segEnd < len(insts[ti]) && insts[ti][segEnd].Kind != isa.KindBarrier {
				segEnd++
			}
			if segEnd > pos[ti] {
				drain(t, env, []isa.Stream{isa.NewSliceStream(insts[ti][pos[ti]:segEnd])})
				pos[ti] = segEnd
				progressed = true
			}
		}
		done, atBarrier := 0, 0
		for ti := range insts {
			switch {
			case pos[ti] >= len(insts[ti]):
				done++
			case insts[ti][pos[ti]].Kind == isa.KindBarrier:
				atBarrier++
			}
		}
		if done == len(insts) {
			return
		}
		if done+atBarrier == len(insts) {
			// Release the barrier.
			for ti := range insts {
				if pos[ti] < len(insts[ti]) {
					pos[ti]++
				}
			}
			continue
		}
		if !progressed {
			t.Fatal("lockstep drain stuck")
		}
	}
}

func checkWorkload(t *testing.T, name string, mode Mode) {
	t.Helper()
	env := tinyEnv(t)
	wl, err := New(name, ScaleTiny, env.Threads)
	if err != nil {
		t.Fatal(err)
	}
	wl.Init(env)
	streams := wl.Streams(mode)
	if len(streams) != env.Threads {
		t.Fatalf("%s produced %d streams for %d threads", name, len(streams), env.Threads)
	}
	drainLockstep(t, env, streams)
	if err := wl.Verify(); err != nil {
		t.Fatalf("%s/%s: %v", name, mode, err)
	}
}

func TestAllWorkloadsFunctionalBaseline(t *testing.T) {
	names := append(Benchmarks(), Microbenchmarks()...)
	names = append(names, "lud_phase")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) { checkWorkload(t, name, ModeBaseline) })
	}
}

func TestAllWorkloadsFunctionalActive(t *testing.T) {
	names := append(Benchmarks(), Microbenchmarks()...)
	names = append(names, "lud_phase", "mac_vec")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) { checkWorkload(t, name, ModeActive) })
	}
}

func TestLUDPhaseAdaptiveMixes(t *testing.T) {
	env := tinyEnv(t)
	wl := NewLUDPhase(ScaleTiny, env.Threads)
	wl.Init(env)
	streams := wl.Streams(ModeAdaptive)
	var updates, loads int
	for _, s := range streams {
		for {
			in, ok := s.Next()
			if !ok {
				break
			}
			switch in.Kind {
			case isa.KindUpdate:
				updates++
			case isa.KindLoad:
				loads++
			}
		}
	}
	if updates == 0 || loads == 0 {
		t.Fatalf("adaptive mode must mix host (%d loads) and offload (%d updates)", loads, updates)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := New("nope", ScaleTiny, 4); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestTraceEmitters(t *testing.T) {
	env := tinyEnv(t)
	a := NewF64Array(env, 8)
	tr := &Trace{}
	tr.Ld(a.At(0))
	tr.St(a.At(1), 2)
	tr.Int()
	tr.FP()
	tr.FPMul()
	tr.Update(a.At(0), a.At(1), a.At(2), isa.OpMac)
	tr.UpdateMov(a.At(0), a.At(3))
	tr.UpdateConst(7, a.At(4))
	tr.Gather(a.At(2), 4)
	tr.AtomicAdd(a.At(5), 1)
	tr.Barrier()
	if tr.Len() != 11 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	kinds := []isa.Kind{
		isa.KindLoad, isa.KindStore, isa.KindCompute, isa.KindCompute,
		isa.KindCompute, isa.KindUpdate, isa.KindUpdate, isa.KindUpdate,
		isa.KindGather, isa.KindAtomicAdd, isa.KindBarrier,
	}
	s := tr.Stream()
	for i, want := range kinds {
		if in, ok := s.Next(); !ok || in.Kind != want {
			t.Fatalf("inst %d = %s (ok=%v), want %s", i, in.Kind, ok, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream longer than the trace")
	}
}

// TestTraceChunks builds a trace across several chunk boundaries and checks
// the chunk sizes grow from traceChunkMin to traceChunkMax and that the
// stream replays every instruction in order.
func TestTraceChunks(t *testing.T) {
	tr := &Trace{}
	n := 3*traceChunkMax + 5
	for i := 0; i < n; i++ {
		tr.St(mem.VAddr(8*i), float64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	want := traceChunkMin
	for i, c := range tr.chunks {
		if cap(c) != want {
			t.Fatalf("chunk %d capacity = %d, want %d", i, cap(c), want)
		}
		want = min(2*want, traceChunkMax)
	}
	s := tr.Stream()
	for i := 0; i < n; i++ {
		in, ok := s.Next()
		if !ok || in.Value != float64(i) {
			t.Fatalf("inst %d = %+v (ok=%v)", i, in, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream longer than the trace")
	}
}

func TestF64ArrayBounds(t *testing.T) {
	env := tinyEnv(t)
	a := NewF64Array(env, 4)
	a.Set(3, 1.5)
	if a.Get(3) != 1.5 {
		t.Fatal("set/get roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	a.At(4)
}

func TestStripeAlignmentCoLocatesArrays(t *testing.T) {
	env := tinyEnv(t)
	geom := mem.DefaultHMCGeometry()
	n := 2 * cubeStripe / mem.WordSize // two stripes worth of elements
	a := NewF64Array(env, n)
	b := NewF64Array(env, n)
	for _, i := range []int{0, 777, n - 1} {
		ca := geom.CubeOf(env.AS.Translate(a.At(i)))
		cb := geom.CubeOf(env.AS.Translate(b.At(i)))
		if ca != cb {
			t.Fatalf("a[%d] on cube %d but b[%d] on cube %d (stripe alignment broken)", i, ca, i, cb)
		}
	}
}

func TestSpan(t *testing.T) {
	total := 0
	for tid := 0; tid < 7; tid++ {
		lo, hi := span(100, 7, tid)
		if hi < lo {
			t.Fatalf("span inverted: %d > %d", lo, hi)
		}
		total += hi - lo
	}
	if total != 100 {
		t.Fatalf("span covers %d of 100", total)
	}
}

func TestModeString(t *testing.T) {
	if ModeBaseline.String() != "baseline" || ModeActive.String() != "active" || ModeAdaptive.String() != "adaptive" {
		t.Fatal("mode names changed")
	}
}
