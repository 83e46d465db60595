package netmodel

import (
	"fmt"
	"time"

	"adapt/internal/comm"
	"adapt/internal/hwloc"
	"adapt/internal/sim"
)

// Net instantiates a platform's contended facilities on a simulation
// kernel and moves messages across them.
//
// Facility inventory:
//   - nicTx/nicRx: one injection and one delivery queue per node (the
//     InfiniBand/Aries/Omni-Path adapter, paper §4: "both approaches
//     occupy NICs").
//   - qpi: one inter-socket link per node.
//   - cpu: one shared-memory copy engine per rank (the sending core does
//     the memcpy; distinct core pairs copy concurrently, while one core
//     streaming to several peers serializes on its own engine).
//   - gpuOut/gpuIn: each GPU's PCIe x16 link, per direction. Every byte
//     leaving a rank's GPU crosses gpuOut[rank]; every byte entering
//     crosses gpuIn[rank]. This is the lane the paper's node leader
//     saturates in Figure 6a and relieves with the explicit CPU staging
//     buffer in Figure 6c.
//   - gpuCalc: each GPU's compute engine for offloaded reductions (§4.2).
//
// A transfer runs in two phases so the receiver's buffer location can
// differ from the sender's guess (the staging optimization receives
// GPU-bound traffic into host memory):
//
//	Fly (StartTransfer):       source-side + fabric hops → arrival at
//	                           the destination rank's host boundary.
//	FlyDeliver (DeliverFrom):  destination-side PCIe or NVLink hop if the
//	                           receive buffer is in device memory.
type Net struct {
	K *sim.Kernel
	P *Platform

	// Effective facility rates: the Params per-unit rates in exact mode,
	// multiplied by the class's unit count when Params.Aggregate is set.
	shmBw, qpiBw, netBw, pcieBw, nvlBw, gpuCalcBw Rate

	nicTx, nicRx []*sim.Resource
	qpi          []*sim.Resource
	cpu          []*sim.Resource
	gpuOut       []*sim.Resource
	gpuIn        []*sim.Resource
	gpuCalc      []*sim.Resource
	nvlOut       []*sim.Resource
	nvlIn        []*sim.Resource
}

// at returns facility i of class s. An aggregated class holds a single
// shared facility that every index maps to.
func at(s []*sim.Resource, i int) *sim.Resource {
	if len(s) == 1 {
		return s[0]
	}
	return s[i]
}

// NewNet builds the facility set for platform p on kernel k: one
// resource per node/rank per class, or — with p.Aggregate — one shared
// resource per class at the class's aggregate bandwidth (see
// Params.Aggregate for the fidelity tradeoff).
func NewNet(k *sim.Kernel, p *Platform) *Net {
	t := p.Topo
	n := &Net{K: k, P: p,
		shmBw: p.ShmBw, qpiBw: p.QpiBw, netBw: p.NetBw,
		pcieBw: p.PCIeBw, nvlBw: p.NVLinkBw, gpuCalcBw: p.ReduceGPUBw,
	}
	if p.Aggregate {
		nodes, ranks := Rate(t.Nodes), Rate(t.Size())
		n.netBw *= nodes
		n.qpiBw *= nodes
		n.shmBw *= ranks
		n.pcieBw *= ranks
		n.nvlBw *= ranks
		n.gpuCalcBw *= ranks
		one := func(name string) []*sim.Resource {
			return []*sim.Resource{k.NewResource(name)}
		}
		n.nicTx, n.nicRx, n.qpi = one("nic-tx/*"), one("nic-rx/*"), one("qpi/*")
		n.cpu = one("cpu/*")
		if t.HasGPUs() {
			n.gpuOut, n.gpuIn, n.gpuCalc = one("gpu-out/*"), one("gpu-in/*"), one("gpu-calc/*")
			if p.NVLinkBw > 0 {
				n.nvlOut, n.nvlIn = one("nvl-out/*"), one("nvl-in/*")
			}
		}
		return n
	}
	for node := 0; node < t.Nodes; node++ {
		n.nicTx = append(n.nicTx, k.NewResource(fmt.Sprintf("nic-tx/%d", node)))
		n.nicRx = append(n.nicRx, k.NewResource(fmt.Sprintf("nic-rx/%d", node)))
		n.qpi = append(n.qpi, k.NewResource(fmt.Sprintf("qpi/%d", node)))
	}
	for r := 0; r < t.Size(); r++ {
		n.cpu = append(n.cpu, k.NewResource(fmt.Sprintf("cpu/%d", r)))
	}
	if t.HasGPUs() {
		for r := 0; r < t.Size(); r++ {
			n.gpuOut = append(n.gpuOut, k.NewResource(fmt.Sprintf("gpu-out/%d", r)))
			n.gpuIn = append(n.gpuIn, k.NewResource(fmt.Sprintf("gpu-in/%d", r)))
			n.gpuCalc = append(n.gpuCalc, k.NewResource(fmt.Sprintf("gpu-calc/%d", r)))
			if p.NVLinkBw > 0 {
				n.nvlOut = append(n.nvlOut, k.NewResource(fmt.Sprintf("nvl-out/%d", r)))
				n.nvlIn = append(n.nvlIn, k.NewResource(fmt.Sprintf("nvl-in/%d", r)))
			}
		}
	}
	return n
}

// Facilities reports the number of contended resources backing the net
// (O(classes) in aggregate mode, O(nodes+ranks) otherwise).
func (n *Net) Facilities() int {
	return len(n.nicTx) + len(n.nicRx) + len(n.qpi) + len(n.cpu) +
		len(n.gpuOut) + len(n.gpuIn) + len(n.gpuCalc) + len(n.nvlOut) + len(n.nvlIn)
}

// ResolveSpace maps MemDefault to the platform's payload home.
func (n *Net) ResolveSpace(s comm.MemSpace) comm.MemSpace {
	if s != comm.MemDefault {
		return s
	}
	if n.P.Topo.HasGPUs() {
		return comm.MemDevice
	}
	return comm.MemHost
}

type hop struct {
	r  *sim.Resource
	bw Rate
}

// route is a message's path: a fixed latency, then at most three
// contended hops (a device-memory source adds the GPU's out-link to the
// two NIC hops of an inter-node route), held inline so computing one
// allocates nothing.
type route struct {
	alpha time.Duration
	hops  [3]hop
	n     int
}

func (rt *route) add(h hop) {
	rt.hops[rt.n] = h
	rt.n++
}

// nvlinkPeer reports whether src→dst traffic may ride NVLink (same
// socket, NVLink present).
func (n *Net) nvlinkPeer(src, dst int) bool {
	return n.P.NVLinkBw > 0 && src != dst &&
		n.P.Topo.LevelBetween(src, dst) == hwloc.LevelCore
}

// sendRoute returns the route from src's buffer to dst's host boundary.
func (n *Net) sendRoute(src, dst int, srcSpace comm.MemSpace) route {
	t := n.P.Topo
	level := t.LevelBetween(src, dst)
	var rt route
	if n.ResolveSpace(srcSpace) == comm.MemDevice {
		if n.nvlinkPeer(src, dst) {
			// Peer traffic leaves over the GPU's NVLink port.
			rt.alpha = n.P.NVLinkAlpha
			rt.add(hop{at(n.nvlOut, src), n.nvlBw})
			return rt
		}
		rt.alpha += n.P.PCIeAlpha
		rt.add(hop{at(n.gpuOut, src), n.pcieBw})
	}
	switch level {
	case hwloc.LevelSelf: // local copy, no fabric
		rt.alpha += n.P.ShmAlpha
	case hwloc.LevelCore: // intra-socket
		rt.alpha += n.P.ShmAlpha
		if rt.n == 0 { // host→…: the sender core's copy engine
			rt.add(hop{at(n.cpu, src), n.shmBw})
		}
	case hwloc.LevelSocket: // inter-socket
		rt.alpha += n.P.QpiAlpha
		rt.add(hop{at(n.qpi, t.NodeOf(src)), n.qpiBw})
	default: // inter-node
		rt.alpha += n.P.NetAlpha
		rt.add(hop{at(n.nicTx, t.NodeOf(src)), n.netBw})
		rt.add(hop{at(n.nicRx, t.NodeOf(dst)), n.netBw})
	}
	return rt
}

// Lander receives a Flight's two milestones.
type Lander interface {
	// Sent fires when the source buffer is reusable: at the end of the
	// first hop, or after the latency on a route with no hops.
	Sent()
	// Landed fires when the payload reaches the end of the route. The
	// flight is finished: Landed may restart it for a next leg.
	Landed()
}

// Flight carries one message along a route as a chain of typed kernel
// events: one after the route's latency, then one at the end of each
// hop. The first event reserves the first hop; each hop's end reports
// Sent (first hop only) before reserving the next hop, and the last one
// reports Landed. A substrate embeds a Flight in its pooled per-message
// state, so a transfer schedules no closures.
type Flight struct {
	net  *Net
	to   Lander
	rt   route
	next int // hops already reserved
	size int
}

// Fire runs the flight's next event.
func (f *Flight) Fire() {
	if f.next == 1 || f.rt.n == 0 {
		f.to.Sent()
	}
	if f.next < f.rt.n {
		h := f.rt.hops[f.next]
		f.next++
		f.net.K.AtHandler(h.r.Use(h.bw.Over(f.size)), f)
		return
	}
	f.to.Landed() // last touch: Landed may restart f
}

// launch starts f along rt now.
func (n *Net) launch(f *Flight, rt route, size int, to Lander) {
	*f = Flight{net: n, to: to, rt: rt, size: size}
	n.K.ScheduleHandler(rt.alpha, f)
}

// Fly moves size bytes from src toward dst's host boundary along f,
// starting now: to.Sent fires when the source buffer is reusable (end of
// the first hop), to.Landed when the payload arrives.
func (n *Net) Fly(f *Flight, src, dst, size int, srcSpace comm.MemSpace, to Lander) {
	n.launch(f, n.sendRoute(src, dst, srcSpace), size, to)
}

// FlyDeliver lands a payload that reached dst's host boundary in a
// device-memory receive buffer, crossing the destination GPU's NVLink
// ingress port (when src is a known NVLink peer) or its PCIe link; to.Sent
// fires at the end of that hop, to.Landed when the payload is in place.
// It reports false, starting nothing, when dstSpace resolves to host
// memory: the payload is already in place.
func (n *Net) FlyDeliver(f *Flight, src, dst, size int, dstSpace comm.MemSpace, to Lander) bool {
	if n.ResolveSpace(dstSpace) != comm.MemDevice {
		return false
	}
	var rt route
	if src >= 0 && n.nvlinkPeer(src, dst) {
		rt.add(hop{at(n.nvlIn, dst), n.nvlBw})
	} else {
		rt.alpha = n.P.PCIeAlpha
		rt.add(hop{at(n.gpuIn, dst), n.pcieBw})
	}
	n.launch(f, rt, size, to)
	return true
}

// funcLander is a Flight reporting to plain callbacks (either may be
// nil), for callers off the per-message hot path.
type funcLander struct {
	Flight
	sent, landed func()
}

func (l *funcLander) Sent() {
	if l.sent != nil {
		l.sent()
	}
}

func (l *funcLander) Landed() {
	if l.landed != nil {
		l.landed()
	}
}

// StartTransfer moves size bytes from src toward dst starting now.
// onSent fires when the source-side buffer is reusable (end of the first
// hop); onArrive fires when the payload reaches dst's host boundary.
// Either may be nil.
func (n *Net) StartTransfer(src, dst, size int, srcSpace comm.MemSpace, onSent, onArrive func()) {
	l := &funcLander{sent: onSent, landed: onArrive}
	n.Fly(&l.Flight, src, dst, size, srcSpace, l)
}

// Deliver lands an arrived payload in dst's receive buffer, crossing the
// destination GPU's PCIe link when the buffer lives in device memory.
// done fires when the payload is in place.
func (n *Net) Deliver(dst, size int, dstSpace comm.MemSpace, done func()) {
	n.DeliverFrom(-1, dst, size, dstSpace, done)
}

// DeliverFrom is Deliver with the source rank known, so NVLink peer
// traffic can ride the NVLink ingress port instead of PCIe. src may be
// -1 when unknown (forces the PCIe path).
func (n *Net) DeliverFrom(src, dst, size int, dstSpace comm.MemSpace, done func()) {
	l := &funcLander{landed: done}
	if !n.FlyDeliver(&l.Flight, src, dst, size, dstSpace, l) {
		n.K.Schedule(0, done)
	}
}

// ControlLatency returns the one-way latency of a zero-byte control
// message between two ranks (rendezvous RTS/CTS).
func (n *Net) ControlLatency(src, dst int) time.Duration {
	switch n.P.Topo.LevelBetween(src, dst) {
	case hwloc.LevelSelf, hwloc.LevelCore:
		return n.P.ShmAlpha
	case hwloc.LevelSocket:
		return n.P.QpiAlpha
	default:
		return n.P.NetAlpha
	}
}

// GPUReduce runs an offloaded reduction of n bytes on rank's GPU compute
// engine; done fires at kernel completion (paper §4.2).
func (n *Net) GPUReduce(rank, size int, done func()) {
	if n.gpuCalc == nil {
		panic("netmodel: GPUReduce on a CPU platform")
	}
	end := at(n.gpuCalc, rank).Use(n.gpuCalcBw.Over(size))
	n.K.At(end, done)
}

// AsyncCopy runs an asynchronous host↔device copy of n bytes over rank's
// PCIe link; done fires at completion (the §4.1 staging flush).
func (n *Net) AsyncCopy(rank, size int, from, to comm.MemSpace, done func()) {
	if n.gpuIn == nil {
		panic("netmodel: AsyncCopy on a CPU platform")
	}
	var r *sim.Resource
	switch {
	case from == comm.MemHost && to == comm.MemDevice:
		r = at(n.gpuIn, rank)
	case from == comm.MemDevice && to == comm.MemHost:
		r = at(n.gpuOut, rank)
	default:
		panic(fmt.Sprintf("netmodel: AsyncCopy %v→%v", from, to))
	}
	n.K.Schedule(n.P.PCIeAlpha, func() {
		end := r.Use(n.pcieBw.Over(size))
		n.K.At(end, done)
	})
}

// CPUCost returns the blocking local-work duration for kind over n bytes.
func (n *Net) CPUCost(size int, kind comm.ComputeKind) time.Duration {
	switch kind {
	case comm.ComputeReduce:
		return n.P.ReduceCPUBw.Over(size)
	case comm.ComputeCopy:
		return n.P.CopyBw.Over(size)
	case comm.ComputeApp:
		return n.P.ReduceCPUBw.Over(size)
	default:
		panic("netmodel: unknown compute kind")
	}
}
