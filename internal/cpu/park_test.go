package cpu

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refusingMem is a MemPort with MSHR-like capacity: it refuses
// every access until its Tick at cycle blockUntil lifts an initial block,
// and afterwards whenever capacity accesses are outstanding; each accepted
// access completes lat cycles later. Like the L1, its state changes only
// in Tick, which calls the free hook on every change that can turn a
// refusal into acceptance.
type refusingMem struct {
	blocked    bool
	blockUntil uint64
	capacity   int
	lat        uint64
	inflight   []timedDone
	refusals   uint64
	freeHook   func()
}

type timedDone struct {
	at   uint64
	done func(uint64)
}

func (m *refusingMem) Access(addr mem.PAddr, write bool, cycle uint64, done func(uint64)) bool {
	if m.blocked || len(m.inflight) >= m.capacity {
		m.refusals++
		return false
	}
	m.inflight = append(m.inflight, timedDone{cycle + m.lat, done})
	return true
}

func (m *refusingMem) SetFreeHook(free func()) { m.freeHook = free }

func (m *refusingMem) Tick(cycle uint64) {
	if m.blocked && cycle >= m.blockUntil {
		m.blocked = false
		m.freeHook()
	}
	for len(m.inflight) > 0 && m.inflight[0].at <= cycle {
		m.inflight[0].done(cycle)
		m.inflight = m.inflight[1:]
		m.freeHook()
	}
}

func (m *refusingMem) NextWork(now uint64) uint64 {
	next := uint64(sim.Never)
	if m.blocked {
		next = m.blockUntil
	}
	if len(m.inflight) > 0 && m.inflight[0].at < next {
		next = m.inflight[0].at
	}
	if next < now {
		return now
	}
	return next
}

// offloadWindows drives a mockOffload through refusal windows: at each
// window's start cycle it starts refusing, at its end it releases.
type offloadWindows struct {
	off     *mockOffload
	windows [][2]uint64
}

func (w *offloadWindows) Tick(cycle uint64) {
	for _, win := range w.windows {
		switch cycle {
		case win[0]:
			w.off.refuse = true
		case win[1]:
			w.off.release()
		}
	}
}

func (w *offloadWindows) NextWork(now uint64) uint64 {
	next := uint64(sim.Never)
	for _, win := range w.windows {
		for _, at := range win {
			if at >= now && at < next {
				next = at
			}
		}
	}
	return next
}

// parkOutcome is everything a run must reproduce exactly.
type parkOutcome struct {
	stats    Stats
	finish   uint64
	offloads int
}

// parkRig is a core running a load/store/update mix against refusing
// ports on its own engine.
type parkRig struct {
	e   *sim.Engine
	c   *Core
	m   *refusingMem
	off *mockOffload
}

// newParkRig builds the rig. With lockstep set the core is registered
// through sim.TickFunc, which hides its idle hints, so it ticks (and
// retries) every cycle; otherwise the engine parks it on refusals.
// portsFirst registers the ports ahead of the core, so their free hooks
// wake it forward within the cycle instead of backward into the next one.
func newParkRig(lockstep, portsFirst bool) *parkRig {
	st, as := env()
	va := as.Alloc(1<<16, 64)
	var insts []isa.Inst
	for i := 0; i < 96; i++ {
		a := va + mem.VAddr(i*64)
		insts = append(insts,
			isa.Inst{Kind: isa.KindLoad, Addr: a},
			isa.Inst{Kind: isa.KindCompute, Class: isa.ClassFP},
			isa.Inst{Kind: isa.KindUpdate, Src1: a, Target: va + 8, Op: isa.OpAdd},
			isa.Inst{Kind: isa.KindStore, Addr: a + 8, Value: float64(i)},
		)
	}
	r := &parkRig{
		e:   sim.NewEngine(),
		m:   &refusingMem{blocked: true, blockUntil: 40, capacity: 3, lat: 25},
		off: &mockOffload{},
	}
	win := &offloadWindows{off: r.off, windows: [][2]uint64{{5, 90}, {300, 420}, {700, 705}}}
	r.c = NewCore(0, DefaultConfig(), isa.NewSliceStream(insts), r.m, r.off, st, as, nil)
	registerCore := func() {
		if lockstep {
			r.e.Register("core", sim.TickFunc(r.c.Tick))
		} else {
			r.e.Register("core", r.c)
		}
	}
	if !portsFirst {
		registerCore()
	}
	r.e.Register("mem", r.m)
	r.e.Register("offload", win)
	if portsFirst {
		registerCore()
	}
	return r
}

func (r *parkRig) outcome() parkOutcome {
	return parkOutcome{
		stats:    r.c.Stats,
		finish:   r.e.Cycle(),
		offloads: len(r.off.updates),
	}
}

// TestRefusalParkingMatchesLockstep pins the parking contract: a core
// parked on refusing ports reports the same Stats and finish cycle as one
// that retries every cycle, in either tick order, and the retrying core's
// stall counters equal the refusals its ports saw.
func TestRefusalParkingMatchesLockstep(t *testing.T) {
	for _, portsFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("portsFirst=%v", portsFirst), func(t *testing.T) {
			var got, want parkOutcome
			var parked, lock *parkRig
			for _, lockstep := range []bool{true, false} {
				r := newParkRig(lockstep, portsFirst)
				if _, err := r.e.RunUntil(r.c.Finished, 1<<20); err != nil {
					t.Fatal(err)
				}
				if lockstep {
					want, lock = r.outcome(), r
				} else {
					got, parked = r.outcome(), r
				}
			}
			if got != want {
				t.Fatalf("idle-aware run diverged from lockstep:\n got %+v\nwant %+v", got, want)
			}
			if want.stats.MemStalls == 0 || want.stats.OffloadStalls == 0 || want.offloads != 96 {
				t.Fatalf("workload exercised no refusals or lost offloads: %+v", want)
			}
			if lock.m.refusals != want.stats.MemStalls || lock.off.refusals != want.stats.OffloadStalls {
				t.Fatalf("port refusal counts %d/%d disagree with core stalls %+v",
					lock.m.refusals, lock.off.refusals, want.stats)
			}
			if parked.e.JumpedCycles == 0 {
				t.Fatal("no quiescent jump: the parked core was polled every cycle")
			}
		})
	}
}

// TestSettleParkingCompletesStalls steps a parking core and a lockstep core
// side by side and settles the parking core at every cycle boundary where
// a snapshot could capture it (not parked). Settling must leave only
// snapshot-format skip reasons, bring the refusal stall counters level
// with the lockstep core's, and not disturb the rest of the run.
func TestSettleParkingCompletesStalls(t *testing.T) {
	lock, park := newParkRig(true, false), newParkRig(false, false)
	settled := 0
	for !lock.c.Finished() || !park.c.Finished() {
		if lock.e.Cycle() > 1<<16 {
			t.Fatal("cores never finished")
		}
		lock.e.Step()
		park.e.Step()
		if !park.c.Snapshotable() {
			continue
		}
		park.c.SettleParking(park.e.Cycle())
		if park.c.skipReason > skipROBFull {
			t.Fatalf("cycle %d: settled skip reason %d is not snapshot state", park.e.Cycle(), park.c.skipReason)
		}
		if g, w := park.c.Stats, lock.c.Stats; g.MemStalls != w.MemStalls || g.OffloadStalls != w.OffloadStalls {
			t.Fatalf("cycle %d: settled stalls mem %d offload %d, lockstep %d/%d",
				park.e.Cycle(), g.MemStalls, g.OffloadStalls, w.MemStalls, w.OffloadStalls)
		}
		settled++
	}
	if got, want := park.outcome(), lock.outcome(); got != want {
		t.Fatalf("settled run diverged from lockstep:\n got %+v\nwant %+v", got, want)
	}
	if settled == 0 {
		t.Fatal("no boundary was settled")
	}
}
