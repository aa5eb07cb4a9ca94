// Package isa defines the instruction-stream interface between workloads
// and the timing models, including the Update/Gather ISA extension of §3.1.
//
// Workloads are trace generators: each simulated thread produces a stream of
// instructions that the out-of-order core model executes for timing. Plain
// loads/stores/computes model the host-side code; Update and Gather model
// the extended active instructions that the Message Interface packetizes
// into the memory network.
package isa

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// ALUOp is the operation code carried by Update packets and flow table
// entries (the op argument of the Update API).
type ALUOp uint8

// Update/Gather operation codes. The reducing codes fold each update's
// value into the flow result; Mov and ConstAssign are active stores with no
// flow state (see DESIGN.md).
const (
	OpNop         ALUOp = iota
	OpAdd               // result += *src1
	OpMac               // result += *src1 * *src2 (multiply-accumulate)
	OpAbsDiffAcc        // result += |*src1 - *src2| (pagerank's abs)
	OpMin               // result = min(result, *src1)
	OpMax               // result = max(result, *src1)
	OpMacSub            // result -= *src1 * *src2 (lud's elimination term)
	OpMov               // *target = *src1 (active store)
	OpConstAssign       // *target = imm   (active store)
)

// String returns the mnemonic.
func (op ALUOp) String() string {
	switch op {
	case OpNop:
		return "nop"
	case OpAdd:
		return "add"
	case OpMac:
		return "mac"
	case OpAbsDiffAcc:
		return "absdiff"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpMacSub:
		return "macsub"
	case OpMov:
		return "mov"
	case OpConstAssign:
		return "const"
	default:
		return fmt.Sprintf("aluop(%d)", uint8(op))
	}
}

// Reducing reports whether the op participates in a flow reduction (needs a
// flow table entry and a Gather), as opposed to an active store.
func (op ALUOp) Reducing() bool {
	switch op {
	case OpAdd, OpMac, OpAbsDiffAcc, OpMin, OpMax, OpMacSub:
		return true
	}
	return false
}

// TwoOperand reports whether the op consumes two memory operands and hence
// needs an operand buffer entry (§3.2.3); single-operand reductions bypass
// the buffer pool.
func (op ALUOp) TwoOperand() bool {
	switch op {
	case OpMac, OpAbsDiffAcc, OpMacSub:
		return true
	}
	return false
}

// Identity returns the reduction identity for the op.
func (op ALUOp) Identity() float64 {
	switch op {
	case OpMin:
		return math.Inf(1)
	case OpMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// Value computes the per-update value from the fetched operands.
func (op ALUOp) Value(a, b float64) float64 {
	switch op {
	case OpAdd, OpMin, OpMax, OpMov:
		return a
	case OpMac:
		return a * b
	case OpMacSub:
		return -(a * b)
	case OpAbsDiffAcc:
		return math.Abs(a - b)
	default:
		return 0
	}
}

// Combine folds an update value (or a subtree partial result) into an
// accumulator. All reducing ops in the ISA are commutative and associative,
// which is what lets the network aggregate in arbitrary tree order (§2.4.2).
func (op ALUOp) Combine(acc, v float64) float64 {
	switch op {
	case OpAdd, OpMac, OpMacSub, OpAbsDiffAcc:
		return acc + v
	case OpMin:
		return math.Min(acc, v)
	case OpMax:
		return math.Max(acc, v)
	default:
		return acc
	}
}

// Kind discriminates instruction types in a workload trace.
type Kind uint8

// Instruction kinds. KindCompute covers host ALU work (address arithmetic,
// FP math); the memory kinds go through the cache hierarchy; KindUpdate and
// KindGather go to the Message Interface.
const (
	KindCompute Kind = iota
	KindLoad
	KindStore
	KindAtomicAdd // atomically add Value to the float64 at Addr
	KindUpdate
	KindGather
	KindBarrier // synchronize Threads threads (workload phase boundaries)
)

// String returns the mnemonic.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindAtomicAdd:
		return "atomic_add"
	case KindUpdate:
		return "update"
	case KindGather:
		return "gather"
	case KindBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// CompClass selects host compute latency.
type CompClass uint8

// Compute latency classes.
const (
	ClassInt   CompClass = iota // 1-cycle integer/address arithmetic
	ClassFP                     // pipelined FP add class
	ClassFPMul                  // pipelined FP multiply class
)

// Inst is one instruction of a workload trace.
type Inst struct {
	Kind  Kind
	Class CompClass // compute latency class (KindCompute)

	Addr  mem.VAddr // load/store/atomic address
	Value float64   // store/atomic value

	// Update fields (§3.1.1): Update(src1, src2, target, op). Src2 == 0
	// marks a single-operand update. For OpConstAssign, Imm carries the
	// immediate and Src1 is unused.
	Src1, Src2 mem.VAddr
	Target     mem.VAddr
	Op         ALUOp
	Imm        float64

	// Gather fields: Gather(target, num_threads).
	Threads int

	// Count vectorizes an Update over consecutive words: the offload
	// covers operand pairs (Src1+8i, Src2+8i) for i in [0, Count). Zero or
	// one means a scalar update. All elements must stay within one cache
	// block (the §6 "offloading granularity" extension).
	Count int
}

// Stream produces a thread's instructions in program order. Next returns
// ok=false when the thread has finished.
type Stream interface {
	Next() (Inst, bool)
}

// ReplayStream replays a pre-built instruction trace stored as a list of
// chunks. The chunks are read in place — a workload trace is appended into
// chunks that never move (workload.Trace), so building it copies no
// instruction twice and replaying it copies none.
type ReplayStream struct {
	chunks [][]Inst
	cur    []Inst // chunks[next-1], the chunk being replayed
	next   int    // index of the chunk after cur
	off    int    // replay offset within cur
	base   int    // instructions in the chunks before cur
	n      int    // total instruction count
}

// NewReplayStream replays the concatenation of chunks. The stream reads the
// chunks in place; the caller must not modify them while it is in use.
func NewReplayStream(chunks [][]Inst) *ReplayStream {
	s := &ReplayStream{chunks: chunks}
	for _, c := range chunks {
		s.n += len(c)
	}
	return s
}

// NewSliceStream replays insts: the one-chunk ReplayStream.
func NewSliceStream(insts []Inst) *ReplayStream {
	return NewReplayStream([][]Inst{insts})
}

// advance moves to the next non-empty chunk, reporting false at the end.
func (s *ReplayStream) advance() bool {
	for s.off >= len(s.cur) {
		if s.next >= len(s.chunks) {
			return false
		}
		s.base += len(s.cur)
		s.cur = s.chunks[s.next]
		s.next++
		s.off = 0
	}
	return true
}

// Next implements Stream.
func (s *ReplayStream) Next() (Inst, bool) {
	if in, ok := s.NextPtr(); ok {
		return *in, true
	}
	return Inst{}, false
}

// NextPtr implements PtrStream. The pointee stays valid for the stream's
// lifetime, since the chunks never move.
func (s *ReplayStream) NextPtr() (*Inst, bool) {
	if s.off >= len(s.cur) && !s.advance() {
		return nil, false
	}
	in := &s.cur[s.off]
	s.off++
	return in, true
}

// Pos reports how many instructions have been consumed (the replay
// cursor), for checkpointing.
func (s *ReplayStream) Pos() int { return s.base + s.off }

// Len reports the total instruction count.
func (s *ReplayStream) Len() int { return s.n }

// SetPos moves the replay cursor (restore path). It panics on an
// out-of-range position; snapshot decoders validate against Len first.
func (s *ReplayStream) SetPos(pos int) {
	if pos < 0 || pos > s.n {
		panic("isa: ReplayStream position out of range")
	}
	s.cur, s.next, s.base = nil, 0, 0
	for s.next < len(s.chunks) {
		s.base += len(s.cur)
		s.cur = s.chunks[s.next]
		s.next++
		if pos-s.base <= len(s.cur) {
			break // pos lies in cur, or at its end
		}
	}
	s.off = pos - s.base
}

// PtrStream is an optional Stream extension that hands out a pointer to the
// next instruction instead of a copy. The pointee is owned by the stream
// and valid only until the following NextPtr/Next call; callers that need
// the instruction longer (a dispatch stash) copy it themselves. The core
// model uses this to avoid copying the ~80-byte Inst once per dispatched
// instruction on its hottest path.
type PtrStream interface {
	NextPtr() (*Inst, bool)
}

// FuncStream adapts a generator function to Stream.
type FuncStream func() (Inst, bool)

// Next implements Stream.
func (f FuncStream) Next() (Inst, bool) { return f() }

// ChainStream concatenates streams, draining each in turn.
type ChainStream struct {
	streams []Stream
}

// NewChainStream concatenates the given streams.
func NewChainStream(streams ...Stream) *ChainStream {
	return &ChainStream{streams: streams}
}

// Next implements Stream.
func (c *ChainStream) Next() (Inst, bool) {
	for len(c.streams) > 0 {
		if in, ok := c.streams[0].Next(); ok {
			return in, true
		}
		c.streams = c.streams[1:]
	}
	return Inst{}, false
}
