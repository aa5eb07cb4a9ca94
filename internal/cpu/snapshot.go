package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FenceKind names the primitive a fenced core is blocked on, recorded at
// issue so checkpoint restore can re-arm the fence.
type FenceKind uint8

const (
	FenceNone FenceKind = iota
	FenceBarrier
	FenceGather
)

// seekable is the stream capability checkpointing needs: every workload
// stream is an isa.ReplayStream over a pre-built trace, so the replay
// cursor is the stream's whole state.
type seekable interface {
	Pos() int
	Len() int
	SetPos(int)
}

// Snapshotable reports whether the core's state is capturable: its stream
// must expose a replay cursor, and every in-flight ROB entry must be
// accounted for by a timed call or the fence (an outstanding memory access
// would hold a completion callback inside the cache hierarchy, which the
// system-level quiescence predicate rules out before asking).
func (c *Core) Snapshotable() bool {
	if _, ok := c.stream.(seekable); !ok {
		return false
	}
	pend := 0
	for i := c.robHead; i != c.robTail; i++ {
		if !c.rob[i&c.robMask].done {
			pend++
		}
	}
	if c.fenced {
		pend--
	}
	// A parked core waits on a busy port, which the system-level predicate
	// rules out; parking state is never captured.
	return pend == len(c.calls) && c.parkedOn == skipNone
}

// SettleParking prepares the core for a snapshot at cycle boundary now
// (cycle now not yet run). A core unparked by its port's free hook may
// still owe the stall credit for the cycles it skipped while parked; this
// credits them and clears the parking skip reason, so a snapshot encodes
// only the skip reasons the format has always had and the restored core —
// which starts unparked — resumes with its counters complete.
func (c *Core) SettleParking(now uint64) {
	if c.skipReason != skipMemStall && c.skipReason != skipOffloadStall {
		return
	}
	if now > c.lastSeen+1 {
		c.credit(c.skipReason, now-c.lastSeen-1)
		c.lastSeen = now - 1
	}
	c.skipReason = skipNone
}

func encInst(e *sim.Enc, in *isa.Inst) {
	e.U32(uint32(in.Kind))
	e.U32(uint32(in.Class))
	e.U64(uint64(in.Addr))
	e.F64(in.Value)
	e.U64(uint64(in.Src1))
	e.U64(uint64(in.Src2))
	e.U64(uint64(in.Target))
	e.U32(uint32(in.Op))
	e.F64(in.Imm)
	e.Int(in.Threads)
	e.Int(in.Count)
}

func decInst(d *sim.Dec, in *isa.Inst) {
	in.Kind = isa.Kind(d.U32())
	in.Class = isa.CompClass(d.U32())
	in.Addr = mem.VAddr(d.U64())
	in.Value = d.F64()
	in.Src1 = mem.VAddr(d.U64())
	in.Src2 = mem.VAddr(d.U64())
	in.Target = mem.VAddr(d.U64())
	in.Op = isa.ALUOp(d.U32())
	in.Imm = d.F64()
	in.Threads = d.Int()
	in.Count = d.Int()
}

// Snapshot appends the core's quiescent-point state: replay cursor, ROB
// ring occupancy with completion flags, pending timed calls as (cycle,
// slot) pairs, fence provenance, stall bookkeeping, stats and IPC series.
// Completion closures are not serialized — they are recreated on restore
// (compute completions through the calls list, fence wakes through
// RearmFence, memory completions impossible at quiescence).
func (c *Core) Snapshot(e *sim.Enc) {
	e.Tag("core")
	e.Int(c.ID)
	e.Int(c.stream.(seekable).Pos())
	e.Bool(c.hasPending)
	encInst(e, &c.pending)
	e.Bool(c.exhausted)
	e.U32(c.robHead)
	e.U32(c.robTail)
	for i := c.robHead; i != c.robTail; i++ {
		e.Bool(c.rob[i&c.robMask].done)
	}
	e.Int(len(c.calls))
	for _, t := range c.calls {
		e.U64(t.at)
		idx := -1
		for j := range c.rob {
			if &c.rob[j] == t.e {
				idx = j
				break
			}
		}
		e.Int(idx)
	}
	fk := c.fenceKind
	var ft mem.PAddr
	if !c.fenced {
		fk = FenceNone
	} else {
		ft = c.fenceTarget
	}
	e.Bool(c.fenced)
	e.U32(uint32(fk))
	e.U64(uint64(ft))
	e.U64(c.lastSeen)
	e.U32(uint32(c.skipReason))
	st := &c.Stats
	for _, v := range []uint64{st.Retired, st.Loads, st.Stores, st.Updates, st.Gathers,
		st.Computes, st.Barriers, st.ROBFullCycles, st.OffloadStalls, st.MemStalls,
		st.FenceCycles, st.DoneCycle} {
		e.U64(v)
	}
	c.IPC.Snapshot(e)
}

// Restore reads the state back into a freshly constructed core. Fences are
// NOT re-armed here — the system calls RearmFence afterwards, in core-ID
// order, once the barrier and coordinator have been restored.
func (c *Core) Restore(d *sim.Dec) {
	d.Tag("core")
	if id := d.Int(); d.Err() == nil && id != c.ID {
		d.Fail("core id mismatch: snapshot %d, machine %d", id, c.ID)
	}
	sk, ok := c.stream.(seekable)
	if !ok {
		d.Fail("core %d stream is not seekable", c.ID)
		return
	}
	pos := d.Int()
	if d.Err() != nil {
		return
	}
	if pos < 0 || pos > sk.Len() {
		d.Fail("core %d stream position %d out of range [0,%d]", c.ID, pos, sk.Len())
		return
	}
	sk.SetPos(pos)
	c.hasPending = d.Bool()
	decInst(d, &c.pending)
	c.exhausted = d.Bool()
	c.robHead = d.U32()
	c.robTail = d.U32()
	if n := c.robTail - c.robHead; n > uint32(len(c.rob)) {
		d.Fail("core %d ROB occupancy %d exceeds capacity %d", c.ID, n, len(c.rob))
		return
	}
	for i := c.robHead; i != c.robTail; i++ {
		c.rob[i&c.robMask].done = d.Bool()
	}
	ncalls := d.Len(len(c.rob), "core timed calls")
	c.calls = c.calls[:0]
	for i := 0; i < ncalls && d.Err() == nil; i++ {
		at := d.U64()
		idx := d.Int()
		if d.Err() != nil {
			return
		}
		if idx < 0 || idx >= len(c.rob) {
			d.Fail("core %d timed call slot %d out of range", c.ID, idx)
			return
		}
		c.calls = append(c.calls, timedCall{at: at, e: &c.rob[idx]})
	}
	c.fenced = d.Bool()
	c.fenceKind = FenceKind(d.U32())
	c.fenceTarget = mem.PAddr(d.U64())
	c.lastSeen = d.U64()
	c.skipReason = skipReason(d.U32())
	if c.skipReason > skipROBFull {
		d.Fail("core %d skip reason %d is not snapshot state", c.ID, c.skipReason)
	}
	st := &c.Stats
	for _, p := range []*uint64{&st.Retired, &st.Loads, &st.Stores, &st.Updates, &st.Gathers,
		&st.Computes, &st.Barriers, &st.ROBFullCycles, &st.OffloadStalls, &st.MemStalls,
		&st.FenceCycles, &st.DoneCycle} {
		*p = d.U64()
	}
	c.IPC.Restore(d)
	if d.Err() == nil && c.fenced {
		if c.fenceKind != FenceBarrier && c.fenceKind != FenceGather {
			d.Fail("core %d fenced with unknown fence kind %d", c.ID, c.fenceKind)
		}
		if c.robLen() == 0 {
			d.Fail("core %d fenced with an empty ROB", c.ID)
		}
	}
}

// RearmFence re-attaches a restored core's fence wake to its primitive:
// barrier fences re-arrive at the core's barrier (wake order across cores
// is commutative — each wake only raises its own core's flags — so
// re-arrival in core-ID order reproduces the original machine state
// bit-identically); gather fences re-attach to the coordinator flow via
// attach, which reports whether the flow exists. It returns false when a
// fence cannot be re-armed (a corrupt or inconsistent snapshot).
func (c *Core) RearmFence(attach func(target mem.PAddr, wake func(cycle uint64)) bool) bool {
	if !c.fenced {
		return true
	}
	e := &c.rob[(c.robTail-1)&c.robMask]
	switch c.fenceKind {
	case FenceBarrier:
		if c.barrier == nil {
			return false
		}
		if e.barrierWake == nil {
			e.barrierWake = func() {
				e.done = true
				c.fenced = false
				c.waker.Wake()
			}
		}
		c.barrier.Arrive(e.barrierWake)
		return true
	case FenceGather:
		if e.gatherWake == nil {
			e.gatherWake = func(uint64) {
				e.done = true
				c.fenced = false
				c.waker.Wake()
			}
		}
		return attach != nil && attach(c.fenceTarget, e.gatherWake)
	}
	return false
}
