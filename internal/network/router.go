package network

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Endpoint consumes packets that reach their destination node. Deliver
// returns false to refuse the packet (component backpressure); the fabric
// keeps it queued and re-offers it on later cycles, which is how Active-
// Routing Engine stalls propagate back into the network (Fig 5.2's stall
// component).
//
// A successful Deliver transfers packet ownership to the endpoint, which
// must release the packet to the fabric's Pool at its single point of final
// consumption (see Pool and DESIGN.md "Memory discipline").
type Endpoint interface {
	Deliver(p *Packet, cycle uint64) bool
}

// EndpointFunc adapts a function to Endpoint.
type EndpointFunc func(p *Packet, cycle uint64) bool

// Deliver calls f.
func (f EndpointFunc) Deliver(p *Packet, cycle uint64) bool { return f(p, cycle) }

// Config carries the fabric parameters of Table 4.1. Queue depths double as
// the fixed ring-buffer capacities of the router input and injection queues
// (rounded up to powers of two), so the steady-state fabric never allocates.
type Config struct {
	VCs           int    // virtual channels; must equal numVCs
	QueueDepth    int    // packets per (port, VC) input queue
	InjDepth      int    // packets per injection queue
	LinkLatency   uint64 // link traversal latency, network cycles
	LinkBandwidth int    // bytes per network cycle per link
	RouterDelay   uint64 // router pipeline latency, network cycles
	ClockDiv      uint64 // simulator cycles per network cycle
}

// Validate reports the first field NewFabric cannot build a fabric from.
func (c Config) Validate() error {
	switch {
	case c.VCs != numVCs:
		return fmt.Errorf("VCs must be %d (3 traffic classes × 2 hop classes), got %d", numVCs, c.VCs)
	case c.QueueDepth <= 0:
		return errors.New("QueueDepth must be positive")
	case c.InjDepth <= 0:
		return errors.New("InjDepth must be positive")
	case c.LinkBandwidth <= 0:
		return errors.New("LinkBandwidth must be positive")
	case c.ClockDiv == 0:
		return errors.New("ClockDiv must be positive")
	}
	return nil
}

// DefaultMemNetConfig returns the memory-network parameters: 1 GHz network
// clock under a 2 GHz core clock, 16-lane 12.5 Gbps links (25 GB/s ≈ 25
// bytes per network cycle, rounded to 32 for the 1 GHz crossbar clock).
func DefaultMemNetConfig() Config {
	return Config{
		VCs:           6,
		QueueDepth:    8,
		InjDepth:      16,
		LinkLatency:   4,
		LinkBandwidth: 32,
		RouterDelay:   2,
		ClockDiv:      2,
	}
}

// DefaultNoCConfig returns the on-chip 4×4 mesh parameters (full core
// clock, wide links, short hops).
func DefaultNoCConfig() Config {
	return Config{
		VCs:           6,
		QueueDepth:    8,
		InjDepth:      16,
		LinkLatency:   1,
		LinkBandwidth: 32,
		RouterDelay:   2,
		ClockDiv:      1,
	}
}

// numVCs is the fabric's VC count: vcBase's three traffic classes, each
// split into two hop classes (Topology.HopClass) that break cyclic channel
// dependencies inside a class. Config.VCs must equal it.
const numVCs = 6

// vcBase maps a packet kind to its VC class pair. Three classes break
// request-generates-request protocol deadlock: plain requests (updates,
// gathers, memory reads) may generate operand/active-store requests, which
// only generate responses — an acyclic class order, each class guaranteed
// to drain assuming the classes above it do.
func vcBase(k Kind) int {
	switch {
	case k.IsResponse():
		return 4
	case k == OperandReq || k == ActiveStoreReq:
		return 2
	default:
		return 0
	}
}

type arrival struct {
	p    *Packet
	port int
	vc   int
}

type upstream struct {
	node int
	port int
}

// credRef names one deferred credit: input queue idx at router node.
type credRef struct {
	node int32
	idx  int32
}

// link is a precomputed Topology.Neighbor result for one output port.
type link struct {
	peer     int
	peerPort int
	ok       bool
}

type router struct {
	node     int
	ports    int
	in       []packetRing // [port*numVCs + vc]
	inj      []packetRing // [vc]
	up       []upstream   // [port] upstream node/port, node == -1 if unused
	credits  []int        // [port*numVCs + vc] credits toward downstream input
	linkBusy []uint64     // [port] output link busy-until (simulator cycles)
	pending  arrivalWheel // in-flight packets heading to this router
	rrPort   int          // round-robin arbitration state

	// pendingMin is the earliest arrival cycle in pending (sim.Never when
	// empty), so the landing phase and the idle hint are O(1) while every
	// in-flight packet is still on the wire.
	pendingMin uint64

	// Precomputed topology views (the topology is immutable).
	links    []link // [port]
	routeTo  []int8 // [dst] output port, -1 for self
	hopClass []int8 // [dst]

	// Occupancy tracking so the tick phases touch only non-empty state.
	inCount  int    // packets across all input queues
	injCount int    // packets across all injection queues
	occ      uint64 // bit q set iff queue q non-empty; in queues at
	// [0, ports*numVCs), injection queues at [ports*numVCs, nin).
	// NewFabric guarantees nin = ports*numVCs+numVCs <= 64.

	// Head metadata cache, maintained on every head change (push to an
	// empty queue, pop, landing): the arbitration loops compare small
	// integers instead of dereferencing the head packet per attempt.
	// headOut[q] is the output port the head routes to (-1 when the queue
	// is empty or the head ejects here); headVC[q] is its precomputed
	// downstream VC; ejectHead has bit q set iff the head's destination is
	// this node. wantCount[out] counts occupied queues whose head routes to
	// out, and wantMask mirrors it as a bitmask so forward() visits only
	// output ports some head actually wants.
	headOut   []int8 // [nin]
	headVC    []int8 // [nin]
	ejectHead uint64
	wantCount []uint16 // [ports]
	wantMask  uint64
}

// queueAt returns input queue idx (link inputs first, then injection).
func (r *router) queueAt(idx int) *packetRing {
	if idx >= r.ports*numVCs {
		return &r.inj[idx-r.ports*numVCs]
	}
	return &r.in[idx]
}

// updateHead refreshes the head metadata for queue idx.
func (f *Fabric) updateHead(r *router, idx int) {
	if old := r.headOut[idx]; old >= 0 {
		r.wantCount[old]--
		if r.wantCount[old] == 0 {
			r.wantMask &^= 1 << uint(old)
		}
	}
	q := r.queueAt(idx)
	if q.len() == 0 {
		r.headOut[idx] = -1
		r.ejectHead &^= 1 << uint(idx)
		return
	}
	h := q.peek()
	if h.Dst == r.node {
		r.headOut[idx] = -1
		r.ejectHead |= 1 << uint(idx)
		return
	}
	r.ejectHead &^= 1 << uint(idx)
	out := r.routeTo[h.Dst]
	r.headOut[idx] = out
	r.headVC[idx] = int8(vcBase(h.Kind) + int(r.hopClass[h.Dst]))
	r.wantCount[out]++
	r.wantMask |= 1 << uint(out)
}

func (r *router) markIn(idx int)   { r.occ |= 1 << uint(idx) }
func (r *router) unmarkIn(idx int) { r.occ &^= 1 << uint(idx) }

// Fabric is one interconnection network instance: topology + routers +
// endpoints, ticked as one component.
type Fabric struct {
	Topo Topology
	Cfg  Config

	// Pool is the fabric's packet free list. Components attached to the
	// fabric acquire and release packets here.
	Pool *Pool

	// Counters holds the per-kind delivery counters.
	Counters   *stats.Set
	deliveredH [kindCount]stats.Handle

	routers   []*router
	endpoints []Endpoint

	// Occupancy: inflight counts packets anywhere in the fabric (queued or
	// on a wire); queued is the subset in input/injection queues.
	inflight int
	queued   int

	// Router-level occupancy masks, bit = node id (NewFabric caps the node
	// count at 64): busyNodes marks routers holding queued packets,
	// pendingNodes routers with in-flight arrivals.
	busyNodes    uint64
	pendingNodes uint64

	// waker invalidates the engine's cached idle hint; Inject is the
	// fabric's only external entry point.
	waker *sim.Waker

	// pendingCredits defers credit returns to the start of the next
	// network cycle's tick (1-cycle credit turnaround, part of the timing
	// model). The slice is reused; steady state allocates nothing.
	pendingCredits []credRef

	// Counters for Fig 5.4 and the energy model.
	HopBytes     uint64
	Delivered    uint64
	Injected     uint64
	Movement     stats.DataMovement
	ejectStalled uint64
	nextID       uint64

	wheelHorizon uint64 // arrival-wheel capacity in network cycles

	// clockMask enables mask/shift arithmetic for the (common) power-of-two
	// ClockDiv: cycle%ClockDiv == cycle&clockMask. clockShift is
	// log2(ClockDiv); both are valid only when clockPow2.
	clockMask  uint64
	clockShift uint
	clockPow2  bool

	// classMask[c] selects input-queue occupancy bits whose VC belongs to
	// ejection class c (vc/2 == c); shared by all routers since the bit
	// layout has stride numVCs.
	classMask [3]uint64
}

// NewFabric builds a network over topo. Endpoints are attached later with
// SetEndpoint. It panics on a config that fails Validate and on a topology
// the router's single-word masks cannot hold: at most 64 nodes, and at most
// 64 queues (ports*numVCs link inputs plus numVCs injection queues) per
// router.
func NewFabric(topo Topology, cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic("network: invalid fabric config: " + err.Error())
	}
	f := &Fabric{Topo: topo, Cfg: cfg, Pool: NewPool(), Counters: stats.NewSet()}
	for k := Kind(0); k < kindCount; k++ {
		f.deliveredH[k] = f.Counters.Register("delivered_" + k.String())
	}
	n := topo.Nodes()
	if n > 64 {
		panic(fmt.Sprintf("network: topology has %d nodes; the node masks hold at most 64", n))
	}
	if cfg.ClockDiv&(cfg.ClockDiv-1) == 0 {
		f.clockPow2 = true
		f.clockMask = cfg.ClockDiv - 1
		for d := cfg.ClockDiv; d > 1; d >>= 1 {
			f.clockShift++
		}
	}
	// Size the arrival wheels to the worst-case wire latency in network
	// cycles: serialization of the largest packet plus link and router
	// pipeline latency (+1 slot of slack).
	maxSer := (maxPacketBytes + cfg.LinkBandwidth - 1) / cfg.LinkBandwidth
	wheelSlots := maxSer + int(cfg.LinkLatency) + int(cfg.RouterDelay) + 1
	f.wheelHorizon = uint64(wheelSlots)
	f.routers = make([]*router, n)
	f.endpoints = make([]Endpoint, n)
	for i := 0; i < n; i++ {
		ports := topo.Ports(i)
		nin := ports*numVCs + numVCs
		if nin > 64 {
			panic(fmt.Sprintf("network: node %d has %d ports; %d queues exceed the 64-bit occupancy mask", i, ports, nin))
		}
		r := &router{
			node:       i,
			ports:      ports,
			in:         make([]packetRing, ports*numVCs),
			inj:        make([]packetRing, numVCs),
			up:         make([]upstream, ports),
			credits:    make([]int, ports*numVCs),
			linkBusy:   make([]uint64, ports),
			pending:    newArrivalWheel(wheelSlots),
			pendingMin: sim.Never,
			links:      make([]link, ports),
			routeTo:    make([]int8, n),
			hopClass:   make([]int8, n),
		}
		for q := range r.in {
			r.in[q] = newPacketRing(cfg.QueueDepth)
		}
		for q := range r.inj {
			r.inj[q] = newPacketRing(cfg.InjDepth)
		}
		r.headOut = make([]int8, nin)
		r.headVC = make([]int8, nin)
		r.wantCount = make([]uint16, ports)
		for q := 0; q < nin; q++ {
			r.headOut[q] = -1
		}
		for p := 0; p < ports; p++ {
			r.up[p] = upstream{node: -1}
			peer, peerPort, ok := topo.Neighbor(i, p)
			r.links[p] = link{peer: peer, peerPort: peerPort, ok: ok}
		}
		for dst := 0; dst < n; dst++ {
			if dst == i {
				r.routeTo[dst] = -1
				continue
			}
			r.routeTo[dst] = int8(topo.Route(i, dst))
			r.hopClass[dst] = int8(topo.HopClass(i, dst))
		}
		f.routers[i] = r
	}
	for c := 0; c < 3; c++ {
		for idx := 0; idx < 64; idx++ {
			if (idx%numVCs)/2 == c {
				f.classMask[c] |= 1 << uint(idx)
			}
		}
	}
	// Wire credits and upstream pointers.
	for i := 0; i < n; i++ {
		r := f.routers[i]
		for p := 0; p < r.ports; p++ {
			l := r.links[p]
			if !l.ok {
				continue
			}
			f.routers[l.peer].up[l.peerPort] = upstream{node: i, port: p}
			for vc := 0; vc < numVCs; vc++ {
				r.credits[p*numVCs+vc] = cfg.QueueDepth
			}
		}
	}
	return f
}

// SetEndpoint attaches the component that consumes packets at node n.
func (f *Fabric) SetEndpoint(n int, e Endpoint) { f.endpoints[n] = e }

// SetWaker implements sim.WakeSetter: Inject is the fabric's only external
// entry point; everything else advances through its own Tick.
func (f *Fabric) SetWaker(w *sim.Waker) { f.waker = w }

// NextID returns a fresh packet id (diagnostics only).
func (f *Fabric) NextID() uint64 {
	f.nextID++
	return f.nextID
}

// InjectionFree reports the free injection slots for p's VC at node n.
func (f *Fabric) InjectionFree(n int, p *Packet) int {
	vc := vcBase(p.Kind) // injection queues keyed by base class only
	return f.Cfg.InjDepth - f.routers[n].inj[vc].len()
}

// Inject offers packet p for injection at node n; it reports false when the
// injection queue is full. Src is forced to n.
func (f *Fabric) Inject(n int, p *Packet, cycle uint64) bool {
	if p.Dst < 0 || p.Dst >= f.Topo.Nodes() {
		panic(fmt.Sprintf("network: inject to invalid node %d", p.Dst))
	}
	if p.Dst == n {
		panic("network: inject to self; deliver locally instead")
	}
	r := f.routers[n]
	vc := vcBase(p.Kind)
	if r.inj[vc].len() >= f.Cfg.InjDepth {
		return false
	}
	p.Src = n
	if p.InjectCycle == 0 {
		p.InjectCycle = cycle
	}
	r.inj[vc].push(p)
	idx := r.ports*numVCs + vc
	r.markIn(idx)
	if r.inj[vc].len() == 1 {
		f.updateHead(r, idx)
	}
	r.injCount++
	f.busyNodes |= 1 << uint(n)
	f.waker.Wake()
	f.inflight++
	f.queued++
	f.Injected++
	f.account(p)
	return true
}

func (f *Fabric) account(p *Packet) {
	sz := uint64(p.Size)
	switch {
	case p.Kind.Active() && p.Kind.IsResponse():
		f.Movement.ActiveResp += sz
	case p.Kind.Active():
		f.Movement.ActiveReq += sz
	case p.Kind.IsResponse():
		f.Movement.NormResp += sz
	default:
		f.Movement.NormReq += sz
	}
}

// Drained reports whether no packets remain anywhere in the fabric. It is a
// counter read; the full-scan equivalent is InFlightScan.
func (f *Fabric) Drained() bool { return f.inflight == 0 }

// InFlight counts packets currently inside the fabric (a counter read).
func (f *Fabric) InFlight() int { return f.inflight }

// InFlightScan recounts in-flight packets by walking every queue and wheel.
// It exists to cross-check the occupancy counters in tests.
func (f *Fabric) InFlightScan() int {
	n := 0
	for _, r := range f.routers {
		n += r.pending.len()
		for i := range r.in {
			n += r.in[i].len()
		}
		for i := range r.inj {
			n += r.inj[i].len()
		}
	}
	return n
}

// NextWork implements sim.Idler: the next clock edge while packets are
// queued at any router, or the earliest in-flight arrival when everything
// is on the wire.
func (f *Fabric) NextWork(now uint64) uint64 {
	if f.inflight == 0 {
		return sim.Never
	}
	if f.queued > 0 {
		return f.alignUp(now)
	}
	next := sim.Never
	for m := f.pendingNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		if pm := f.routers[node].pendingMin; pm < next {
			next = pm
		}
	}
	if next <= now {
		return f.alignUp(now)
	}
	return f.alignUp(next)
}

// alignUp rounds c up to the next network clock edge.
func (f *Fabric) alignUp(c uint64) uint64 {
	if f.clockPow2 {
		return (c + f.clockMask) &^ f.clockMask
	}
	div := f.Cfg.ClockDiv
	if rem := c % div; rem != 0 {
		return c + div - rem
	}
	return c
}

// onEdge reports whether c is a network clock edge.
func (f *Fabric) onEdge(c uint64) bool {
	if f.clockPow2 {
		return c&f.clockMask == 0
	}
	return c%f.Cfg.ClockDiv == 0
}

// netCycle converts a (clock-edge) simulator cycle to network cycles.
func (f *Fabric) netCycle(c uint64) uint64 {
	if f.clockPow2 {
		return c >> f.clockShift
	}
	return c / f.Cfg.ClockDiv
}

// Tick advances the fabric by one simulator cycle: apply the credits
// returned last network cycle, then land, eject and forward.
//
//ar:hotpath
func (f *Fabric) Tick(cycle uint64) {
	if !f.onEdge(cycle) {
		return
	}
	if len(f.pendingCredits) > 0 {
		for _, c := range f.pendingCredits {
			f.routers[c.node].credits[c.idx]++
		}
		f.pendingCredits = f.pendingCredits[:0]
	}
	if f.inflight == 0 {
		return
	}
	// Phase 1: land arrivals into input queues (credits guaranteed space).
	// The scan compacts the ring in place; routers whose earliest arrival
	// is still on the wire are skipped entirely via pendingMin, and only
	// routers with any pending arrival are visited at all.
	for m := f.pendingNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		f.land(f.routers[node], cycle)
	}
	// Phase 2: ejection — deliver packets that reached their destination.
	// Ejection handlers may synchronously inject new packets (marking more
	// routers busy), but injection never adds input-queue packets, so the
	// snapshot covers every router with ejectable state.
	for m := f.busyNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		if r := f.routers[node]; r.inCount > 0 {
			f.eject(r, cycle)
		}
	}
	// Phase 3: switch allocation and forwarding (forwarded packets land on
	// pending wheels at least one network cycle ahead, so the snapshot is
	// complete).
	for m := f.busyNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		if r := f.routers[node]; r.inCount+r.injCount > 0 {
			f.forward(r, cycle)
		}
	}
}

// land moves arrivals whose wire traversal has completed into their input
// queues by draining the due wheel buckets in time order.
func (f *Fabric) land(r *router, cycle uint64) {
	if r.pendingMin > cycle {
		return
	}
	nowNet := f.netCycle(cycle)
	for t := f.netCycle(r.pendingMin); t <= nowNet; t++ {
		b := r.pending.take(t)
		for i := range b {
			a := &b[i]
			idx := a.port*numVCs + a.vc
			r.in[idx].push(a.p)
			if r.in[idx].len() == 1 {
				f.updateHead(r, idx)
			}
			r.inCount++
			r.markIn(idx)
			f.queued++
		}
		r.pending.putBack(t, b)
	}
	f.busyNodes |= 1 << uint(r.node)
	if r.pending.len() == 0 {
		r.pendingMin = sim.Never
		f.pendingNodes &^= 1 << uint(r.node)
		return
	}
	for t := nowNet + 1; ; t++ {
		if len(r.pending.buckets[t&r.pending.mask]) > 0 {
			r.pendingMin = t * f.Cfg.ClockDiv
			return
		}
	}
}

// eject delivers destination packets at router r, higher traffic classes
// first (responses, then operand requests, then plain requests) so the
// drain order matches the deadlock-freedom argument. Each queue gets one
// delivery attempt per cycle; endpoint refusals backpressure the network.
// Ejection bandwidth is otherwise unbounded — a modeling simplification the
// simulated results depend on (see DESIGN.md). Only queues whose cached
// head ejects here are visited, class descending, then port then VC
// ascending.
//
//ar:hotpath
func (f *Fabric) eject(r *router, cycle uint64) {
	ep := f.endpoints[r.node]
	for class := 2; class >= 0; class-- { // 2=response, 1=operand, 0=request
		// ejectHead never marks an injection queue: Inject refuses
		// self-addressed packets.
		for m := r.occ & f.classMask[class] & r.ejectHead; m != 0; m &= m - 1 {
			f.ejectQueue(r, ep, bits.TrailingZeros64(m), cycle)
		}
	}
}

// ejectQueue offers the head of input queue idx, which the caller has
// found destined for this node, to the endpoint. A successful Deliver is
// the ejection commit: ownership passes to the endpoint, which releases
// the packet to the fabric pool at its final consumption point.
//
//ar:hotpath
func (f *Fabric) ejectQueue(r *router, ep Endpoint, idx int, cycle uint64) {
	q := &r.in[idx]
	p := q.peek()
	if ep == nil {
		panic(fmt.Sprintf("network: packet %s for node %d with no endpoint", p.Kind, r.node))
	}
	p.ArriveCycle = cycle
	// A successful Deliver transfers ownership — synchronous consumers
	// release the packet before returning — so everything the fabric still
	// needs must be read first.
	kind := p.Kind
	if !ep.Deliver(p, cycle) {
		f.ejectStalled++
		return
	}
	q.pop()
	r.inCount--
	f.queued--
	f.inflight--
	if q.len() == 0 {
		r.unmarkIn(idx)
		if r.inCount+r.injCount == 0 {
			f.busyNodes &^= 1 << uint(r.node)
		}
	}
	f.updateHead(r, idx)
	f.returnCredit(r, idx/numVCs, idx%numVCs)
	f.Delivered++
	f.Counters.IncH(f.deliveredH[kind])
}

// forward performs output-port arbitration: for every output port send the
// first occupied queue, round-robin from rrPort over link inputs and
// injection queues, whose cached head routes to that port and holds a
// downstream credit.
//
//ar:hotpath
func (f *Fabric) forward(r *router, cycle uint64) {
	for out := 0; out < r.ports; out++ {
		// Skip output ports no head currently wants. The mask is re-read
		// every iteration because a pop can promote a new head wanting a
		// later port this same cycle.
		if r.wantMask>>uint(out)&1 == 0 {
			continue
		}
		if r.linkBusy[out] > cycle {
			continue
		}
		l := r.links[out]
		if !l.ok {
			continue
		}
		// Rotating occ right by rrPort lists the queues in round-robin
		// order: rrPort upward, then the wrapped-around low bits (bits at
		// and above nin are always clear).
		for m := bits.RotateLeft64(r.occ, -r.rrPort); m != 0; m &= m - 1 {
			idx := (bits.TrailingZeros64(m) + r.rrPort) & 63
			if int(r.headOut[idx]) == out && r.credits[out*numVCs+int(r.headVC[idx])] > 0 {
				f.send(r, out, idx, l, cycle)
				break
			}
		}
	}
}

// send transmits the head of queue idx through output port out, whose link
// is free and whose downstream VC headVC[idx] holds a credit.
func (f *Fabric) send(r *router, out, idx int, l link, cycle uint64) {
	q := r.queueAt(idx)
	vc := int(r.headVC[idx])
	p := q.pop()
	if q.len() == 0 {
		r.unmarkIn(idx)
	}
	f.updateHead(r, idx)
	if idx >= r.ports*numVCs {
		r.injCount--
	} else {
		r.inCount--
		f.returnCredit(r, idx/numVCs, idx%numVCs)
	}
	if r.inCount+r.injCount == 0 {
		f.busyNodes &^= 1 << uint(r.node)
	}
	f.queued--
	r.credits[out*numVCs+vc]--
	ser := uint64((p.Size + f.Cfg.LinkBandwidth - 1) / f.Cfg.LinkBandwidth)
	r.linkBusy[out] = cycle + ser*f.Cfg.ClockDiv
	wire := ser + f.Cfg.LinkLatency + f.Cfg.RouterDelay
	if wire >= f.wheelHorizon {
		panic("network: arrival beyond wheel horizon")
	}
	arrive := cycle + wire*f.Cfg.ClockDiv
	p.Hops++
	f.HopBytes += uint64(p.Size)
	peer := f.routers[l.peer]
	peer.pending.push(f.netCycle(arrive), arrival{p: p, port: l.peerPort, vc: vc})
	if arrive < peer.pendingMin {
		peer.pendingMin = arrive
	}
	f.pendingNodes |= 1 << uint(l.peer)
	r.rrPort = (idx + 1) % (r.ports*numVCs + numVCs)
}

// returnCredit gives a buffer slot back to the upstream router feeding
// (port, vc) at r. The return is deferred to the start of the next network
// cycle's tick, modeling a 1-cycle credit turnaround: a slot freed this
// cycle is never reused by an upstream router that forwards later in the
// same cycle, whatever the router visit order.
func (f *Fabric) returnCredit(r *router, port, vc int) {
	up := r.up[port]
	if up.node < 0 {
		return
	}
	f.pendingCredits = append(f.pendingCredits, credRef{node: int32(up.node), idx: int32(up.port*numVCs + vc)}) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
}
