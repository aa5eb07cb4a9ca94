package system

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MessageInterface is the per-core MI of Fig 3.1 (§3.1.2): it accepts
// Update/Gather instructions from the core, performs the §3.4.2 coherence
// query (a back-invalidation probe at the block's directory bank) for each
// offload, and forwards commands to the flow coordinator in program order —
// a Gather can never overtake its thread's earlier Updates.
type MessageInterface struct {
	tile  int
	send  cache.Sender
	coord *core.Coordinator
	pool  *cache.MsgPool

	queue     sim.FIFO[*miEntry]
	free      []*miEntry // recycled queue entries
	cap       int
	window    int
	nextTag   uint64
	byTag     map[uint64]*miEntry
	unqueried int // updates whose coherence query has not been sent yet
	// scanFrom is the queue offset of the first unqueried update: queries
	// are issued strictly front to back, so every earlier entry is already
	// queried (or a gather) and the per-tick window scan starts here.
	scanFrom int

	// waker invalidates the engine's cached idle hint on external input
	// (Update/Gather from the core, OnBackInvalDone from the directory).
	waker *sim.Waker
	// freeHook is the core's parking hook (cpu.OffloadPort), called on every queue
	// pop: a full queue is the only refusal.
	freeHook func()

	// Stats.
	QueriesSent  uint64
	UpdatesSent  uint64
	GathersSent  uint64
	QueueFullRej uint64
}

type miEntry struct {
	upd      core.UpdateCmd
	gather   core.GatherCmd
	isGather bool
	queried  bool
	cleared  bool
	// lateCleared/clearedAt reproduce the sequential drain timing under the
	// sharded kernel: a clear that arrives after the MI's tick-order slot
	// (i.e. during the NoC ejection pass) is drainable only from the next
	// cycle on, exactly as the sequential kernel's already-past drain loop
	// would have it.
	lateCleared bool
	clearedAt   uint64
	tag         uint64
}

// NewMessageInterface builds the MI for the core at tile. pool is the
// machine's shared coherence-message free list.
func NewMessageInterface(tile int, send cache.Sender, coord *core.Coordinator, pool *cache.MsgPool, capacity, window int) *MessageInterface {
	if capacity <= 0 {
		capacity = 16
	}
	if window <= 0 {
		window = 8
	}
	if pool == nil {
		pool = cache.NewMsgPool()
	}
	return &MessageInterface{
		tile:   tile,
		send:   send,
		coord:  coord,
		pool:   pool,
		cap:    capacity,
		window: window,
		byTag:  make(map[uint64]*miEntry),
	}
}

// getEntry returns a recycled (or fresh) queue entry.
func (mi *MessageInterface) getEntry() *miEntry {
	if n := len(mi.free); n > 0 {
		e := mi.free[n-1]
		mi.free = mi.free[:n-1]
		*e = miEntry{}
		return e
	}
	return &miEntry{}
}

var _ cpu.OffloadPort = (*MessageInterface)(nil)

// SetWaker implements sim.WakeSetter.
func (mi *MessageInterface) SetWaker(w *sim.Waker) { mi.waker = w }

// SetFreeHook implements cpu.OffloadPort.
func (mi *MessageInterface) SetFreeHook(free func()) { mi.freeHook = free }

// Refused implements cpu.OffloadPort: n refusals the parked core skipped.
func (mi *MessageInterface) Refused(n uint64) { mi.QueueFullRej += n }

// Update implements cpu.OffloadPort; false stalls the core (offload
// backpressure).
func (mi *MessageInterface) Update(cmd core.UpdateCmd, cycle uint64) bool {
	if mi.queue.Len() >= mi.cap {
		mi.QueueFullRej++
		return false
	}
	e := mi.getEntry()
	e.upd = cmd
	mi.queue.Push(e)
	mi.unqueried++
	mi.waker.Wake()
	return true
}

// Gather implements cpu.OffloadPort.
func (mi *MessageInterface) Gather(cmd core.GatherCmd, cycle uint64) bool {
	if mi.queue.Len() >= mi.cap {
		mi.QueueFullRej++
		return false
	}
	e := mi.getEntry()
	e.gather = cmd
	e.isGather = true
	mi.queue.Push(e)
	mi.waker.Wake()
	return true
}

// Busy reports queued offloads.
func (mi *MessageInterface) Busy() bool { return mi.queue.Len() > 0 }

// NextWork implements sim.Idler. The MI is quiescent when its queue is
// empty, and also while every update in the query window has been queried
// and the head is still waiting for its back-invalidation ack (which
// arrives via OnBackInvalDone).
func (mi *MessageInterface) NextWork(now uint64) uint64 {
	if mi.queue.Len() == 0 {
		return never
	}
	head := mi.queue.Peek()
	if head.isGather || head.cleared {
		return now
	}
	if mi.unqueried > 0 && mi.scanFrom < mi.window {
		return now // an unqueried update sits inside the query window
	}
	return never
}

// QueryWork reports whether TickQueries has work (the sharded kernel's
// tile-wave idle hint; drains are checked by DrainWork).
func (mi *MessageInterface) QueryWork(now uint64) uint64 {
	if mi.unqueried > 0 && mi.scanFrom < mi.window && mi.scanFrom < mi.queue.Len() {
		return now
	}
	return never
}

// DrainWork reports whether TickDrain can make progress.
func (mi *MessageInterface) DrainWork() bool {
	if mi.queue.Len() == 0 {
		return false
	}
	head := mi.queue.Peek()
	return head.isGather || head.cleared
}

// queryAddr picks the address whose directory bank is probed before the
// offload proceeds (§3.4.2).
func queryAddr(cmd core.UpdateCmd) mem.PAddr {
	if cmd.Src1 != 0 {
		return cmd.Src1
	}
	return cmd.Target
}

// Tick issues coherence queries (up to the window) and drains cleared
// commands to the coordinator in FIFO order. The sharded kernel runs the
// two halves separately: TickQueries in the tile wave (tile-local sends)
// and TickDrain in the serial section (the coordinator's queue-fill order
// across MIs is part of the machine definition). Queries never read
// coordinator state and drains never touch tile state another MI can see,
// so all-queries-then-all-drains is interleaving-equivalent to the
// sequential per-MI tick.
//
//ar:hotpath
func (mi *MessageInterface) Tick(cycle uint64) {
	mi.TickQueries(cycle)
	mi.TickDrain(cycle)
}

// TickQueries issues coherence queries for the leading window of un-queried
// updates, starting at the cursor (everything before it is already
// queried).
//
//ar:hotpath
func (mi *MessageInterface) TickQueries(cycle uint64) {
	limit := mi.window
	if limit > mi.queue.Len() {
		limit = mi.queue.Len()
	}
	for i := mi.scanFrom; i < limit; i++ {
		e := mi.queue.At(i)
		if e.isGather || e.queried {
			mi.scanFrom = i + 1
			continue
		}
		block := mem.BlockAlign(queryAddr(e.upd))
		mi.nextTag++
		tag := uint64(mi.tile)<<40 | mi.nextTag
		m := mi.pool.Get(cache.MsgBackInvalQ, block, mi.tile)
		m.Tag = tag
		if !mi.send(cache.BankOf(block, 16), m) {
			mi.pool.Put(m)
			break
		}
		e.queried = true
		e.tag = tag
		mi.byTag[tag] = e
		mi.unqueried--
		mi.scanFrom = i + 1
		mi.QueriesSent++
	}
}

// TickDrain forwards cleared heads to the coordinator, recycling forwarded
// entries.
//
//ar:hotpath
func (mi *MessageInterface) TickDrain(cycle uint64) {
	for mi.queue.Len() > 0 {
		e := mi.queue.Peek()
		if e.isGather {
			if !mi.coord.EnqueueGather(e.gather, cycle) {
				return
			}
			mi.GathersSent++
		} else {
			if !e.cleared {
				return
			}
			if e.lateCleared && e.clearedAt == cycle {
				// Cleared after this cycle's sequential drain slot: the
				// sequential kernel would forward it next cycle.
				return
			}
			if !mi.coord.EnqueueUpdate(e.upd, cycle) {
				return
			}
			mi.UpdatesSent++
		}
		mi.queue.Pop()
		if mi.scanFrom > 0 {
			mi.scanFrom--
			// The pop slid the query window forward: un-queried updates
			// beyond it may now be queryable. Under the sharded kernel the
			// drain runs in a serial section while the query ticker may be
			// parked on a cached Never, so the window change must wake it
			// (serial sections may wake any shard; in the sequential kernel
			// the wake is a harmless re-poll).
			if mi.unqueried > 0 {
				mi.waker.Wake()
			}
		}
		mi.free = append(mi.free, e) //ar:exempt(hotpath) free list reaches steady-state capacity; append stops growing after warm-up
		if mi.freeHook != nil {
			mi.freeHook()
		}
	}
}

// OnBackInvalDone clears the queried entry so it can be forwarded. late
// reports whether the ack arrived through NoC ejection — a point in the
// cycle that lies after the MI's sequential tick-order slot — in which
// case the entry is drainable only from the next cycle on, under either
// kernel (in the sequential kernel the same-cycle drain has already run,
// so the stamp is naturally a no-op there).
func (mi *MessageInterface) OnBackInvalDone(tag uint64, late bool, cycle uint64) {
	if e, ok := mi.byTag[tag]; ok {
		e.cleared = true
		if late {
			e.lateCleared = true
			e.clearedAt = cycle
		}
		delete(mi.byTag, tag)
		mi.waker.Wake()
	}
}
