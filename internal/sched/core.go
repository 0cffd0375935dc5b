package sched

import (
	"fmt"
	"sort"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// Node flags the core reads. A move is left out of the completion
// profile. A held node — a spill reload — issues no earlier than its
// ALAP level: reloading as late as dependences allow is what makes a
// spill actually shorten its value's register residency. A live-out
// node counts one extra consumer in the priority ranking.
const (
	NodeMove uint8 = 1 << iota
	NodeHold
	NodeLiveOut
)

// Core is the one list scheduler in this repository. List drives it
// for a materialized bound graph; problem.Evaluator drives it for a
// virtual one, once per candidate binding, so it keeps every buffer
// across calls and allocates nothing once warm.
//
// A caller loads a graph node by node in index order, which must be a
// topological order (every dfg.Graph is, by construction): AddNode, then
// the node's hops (AddHop), then its distinct producers (AddPred). A
// hop names a resource pool; hop h of a node issuing at cycle t holds
// one unit of its pool during [t+h·MoveLat, +dii). A compute node has
// one hop, its (cluster, FU type) pool; a move has one hop per link of
// its route, and pool l is link l, so a route's link list is its hop
// list as is. Run then schedules under the paper's priority ranking —
// ALAP level, mobility, consumer count, node index — and records each
// node's start, the unit each hop took, and the latency L.
//
// A Core is not safe for concurrent use.
type Core struct {
	// The machine: pool p owns free[poolOff[p] : poolOff[p]+poolLen[p]],
	// each entry the first cycle its unit can issue again. Link pools
	// come first and cover exactly the global interconnect channels.
	poolOff, poolLen []int32
	free             []int32
	numLinks         int32
	hopLat           int32

	// The graph, per node in index order, with CSR producer and hop lists.
	lat, dii          []int32
	flags             []uint8
	predStart, preds  []int32
	hopStart, hops    []int32
	succStart, succs  []int32
	cons, asap, alap  []int32
	earliest, pending []int32
	ready, wake       []int32

	// The record of the last Run.
	start []int32
	unit  []int32 // per hop: the unit index within its pool
	l     int32
}

// NewCore lays out dp's resource pools and sizes the buffers for graphs
// of up to maxNodes nodes and maxEdges producer edges.
func NewCore(dp *machine.Datapath, maxNodes, maxEdges int) *Core {
	nl := dp.NumLinks()
	np := nl + dp.NumClusters()*dfg.NumFUTypes
	buf := func(n int) []int32 { return make([]int32, 0, n) }
	maxHops := maxNodes * max(1, dp.MaxHops())
	c := &Core{
		poolOff:   make([]int32, np),
		poolLen:   make([]int32, np),
		numLinks:  int32(nl),
		hopLat:    int32(dp.MoveLat()),
		lat:       buf(maxNodes),
		dii:       buf(maxNodes),
		flags:     make([]uint8, 0, maxNodes),
		predStart: buf(maxNodes + 1),
		preds:     buf(maxEdges),
		hopStart:  buf(maxNodes + 1),
		hops:      buf(maxHops),
		succStart: buf(maxNodes + 1),
		succs:     buf(maxEdges),
		cons:      buf(maxNodes),
		asap:      buf(maxNodes),
		alap:      buf(maxNodes),
		earliest:  buf(maxNodes),
		pending:   buf(maxNodes),
		ready:     buf(maxNodes),
		wake:      buf(maxNodes),
		start:     buf(maxNodes),
		unit:      buf(maxHops),
	}
	for l := 0; l < nl; l++ {
		c.poolLen[l] = int32(dp.LinkCapacity(l))
	}
	for cl := 0; cl < dp.NumClusters(); cl++ {
		for t := 1; t < dfg.NumFUTypes; t++ {
			if ft := dfg.FUType(t); ft != dfg.FUBus {
				c.poolLen[c.UnitPool(cl, ft)] = int32(dp.NumFU(cl, ft))
			}
		}
	}
	off := int32(0)
	for p, n := range c.poolLen {
		c.poolOff[p] = off
		off += n
	}
	c.free = make([]int32, off)
	return c
}

// UnitPool is the pool of cluster cl's functional units of type ft.
func (c *Core) UnitPool(cl int, ft dfg.FUType) int32 {
	return c.numLinks + int32(cl*dfg.NumFUTypes+int(ft))
}

// Reset empties the loaded graph, keeping every buffer.
func (c *Core) Reset() {
	c.lat, c.dii, c.flags = c.lat[:0], c.dii[:0], c.flags[:0]
	c.predStart, c.preds = c.predStart[:0], c.preds[:0]
	c.hopStart, c.hops = c.hopStart[:0], c.hops[:0]
}

// AddNode appends a node and returns its index.
func (c *Core) AddNode(lat, dii int32, flags uint8) int32 {
	c.predStart = append(c.predStart, int32(len(c.preds)))
	c.hopStart = append(c.hopStart, int32(len(c.hops)))
	c.lat = append(c.lat, lat)
	c.dii = append(c.dii, dii)
	c.flags = append(c.flags, flags)
	return int32(len(c.lat) - 1)
}

// AddHop appends a hop, on pool p, to the last added node.
func (c *Core) AddHop(p int32) { c.hops = append(c.hops, p) }

// AddPred appends producer k to the last added node's operands.
func (c *Core) AddPred(k int32) { c.preds = append(c.preds, k) }

// NumNodes is the node count of the last Run.
func (c *Core) NumNodes() int { return len(c.start) }

// L is the latency of the last Run: the cycle its last node completes.
func (c *Core) L() int32 { return c.l }

// Start is node k's issue cycle in the last Run.
func (c *Core) Start(k int) int32 { return c.start[k] }

// Units returns, per hop of node k, the index within the hop's pool of
// the unit it took in the last Run.
func (c *Core) Units(k int) []int32 { return c.unit[c.hopStart[k]:c.hopStart[k+1]] }

func (c *Core) predsOf(k int32) []int32 { return c.preds[c.predStart[k]:c.predStart[k+1]] }

// Run list-schedules the loaded graph from empty resource tables.
func (c *Core) Run() error {
	n := int32(len(c.lat))
	c.predStart = append(c.predStart[:n], int32(len(c.preds)))
	c.hopStart = append(c.hopStart[:n], int32(len(c.hops)))
	c.buildSuccs(n)
	target := c.windows(n)

	for i := range c.free {
		c.free[i] = 0
	}
	c.unit = resize(c.unit, len(c.hops))
	c.start = resize(c.start, int(n))
	c.earliest = resize(c.earliest, int(n))
	c.pending = resize(c.pending, int(n))
	c.ready = c.ready[:0]
	// Stall guard: every node eventually issues because each hop's pool
	// is nonempty, so the schedule length is bounded by the critical path
	// plus the sum of every hop's dii and every node's latency.
	work := int32(0)
	for k := int32(0); k < n; k++ {
		work += (c.hopStart[k+1]-c.hopStart[k])*c.dii[k] + c.lat[k]
		c.start[k] = -1
		c.pending[k] = c.predStart[k+1] - c.predStart[k]
		if c.pending[k] == 0 {
			c.earliest[k] = c.release(k, 0)
			c.ready = append(c.ready, k)
		}
	}

	c.l = 0
	for cycle, left := int32(0), n; left > 0; cycle++ {
		if cycle > target+work+1 {
			return fmt.Errorf("sched: no progress by cycle %d; resource model inconsistent", cycle)
		}
		sort.Sort((*byPriority)(c))
		for issued := true; issued; {
			issued = false
			w := 0
			c.wake = c.wake[:0]
			for _, k := range c.ready {
				if c.earliest[k] > cycle || !c.reserve(k, cycle) {
					c.ready[w] = k
					w++
					continue
				}
				c.start[k] = cycle
				if f := cycle + c.lat[k]; f > c.l {
					c.l = f
				}
				left--
				issued = true
				for _, s := range c.succs[c.succStart[k]:c.succStart[k+1]] {
					c.pending[s]--
					if c.pending[s] > 0 {
						continue
					}
					at := int32(0)
					for _, p := range c.predsOf(s) {
						if f := c.start[p] + c.lat[p]; f > at {
							at = f
						}
					}
					c.earliest[s] = c.release(s, at)
					c.wake = append(c.wake, s)
				}
			}
			c.ready = append(c.ready[:w], c.wake...)
			if issued {
				sort.Sort((*byPriority)(c))
			}
		}
	}
	return nil
}

// buildSuccs derives the successor CSR and the consumer counts from the
// producer lists: distinct consumers, plus one for a live-out result.
func (c *Core) buildSuccs(n int32) {
	c.succStart = resize(c.succStart, int(n)+1)
	c.succs = resize(c.succs, len(c.preds))
	c.cons = resize(c.cons, int(n))
	cnt := c.cons
	for i := range cnt {
		cnt[i] = 0
	}
	for _, p := range c.preds {
		cnt[p]++
	}
	c.succStart[0] = 0
	for k := int32(0); k < n; k++ {
		c.succStart[k+1] = c.succStart[k] + cnt[k]
		cnt[k] = 0
	}
	for k := int32(0); k < n; k++ {
		for _, p := range c.predsOf(k) {
			c.succs[c.succStart[p]+cnt[p]] = k
			cnt[p]++
		}
	}
	for k := int32(0); k < n; k++ {
		if c.flags[k]&NodeLiveOut != 0 {
			cnt[k]++
		}
	}
}

// windows computes ASAP/ALAP levels at the critical path, which it
// returns. Index order is topological, so one forward pass settles ASAP;
// in the reverse pass a node's ALAP bound is final when it is reached,
// because every consumer (a higher index) has already pushed its own.
func (c *Core) windows(n int32) int32 {
	c.asap = resize(c.asap, int(n))
	c.alap = resize(c.alap, int(n))
	target := int32(0)
	for k := int32(0); k < n; k++ {
		s := int32(0)
		for _, p := range c.predsOf(k) {
			if t := c.asap[p] + c.lat[p]; t > s {
				s = t
			}
		}
		c.asap[k] = s
		if f := s + c.lat[k]; f > target {
			target = f
		}
	}
	for k := range c.alap {
		c.alap[k] = target
	}
	for k := n - 1; k >= 0; k-- {
		a := c.alap[k] - c.lat[k]
		c.alap[k] = a
		for _, p := range c.predsOf(k) {
			if a < c.alap[p] {
				c.alap[p] = a
			}
		}
	}
	return target
}

// release is the cycle node k may issue from once its operands are
// ready at cycle at: at itself, or its ALAP level for a held node.
func (c *Core) release(k, at int32) int32 {
	if c.flags[k]&NodeHold != 0 && c.alap[k] > at {
		return c.alap[k]
	}
	return at
}

// reserve books one unit per hop of node k issuing at cycle and reports
// whether it could, touching nothing when some hop's pool is full. The
// hops of a multi-hop move reserve together or not at all (store and
// forward, no stop-over in intermediate register files); shortest-path
// routes never repeat a link, so the per-hop probes are independent.
func (c *Core) reserve(k, cycle int32) bool {
	hops := c.hops[c.hopStart[k]:c.hopStart[k+1]]
	if len(hops) > 1 {
		for h, p := range hops {
			if c.freeUnit(p, cycle+int32(h)*c.hopLat) < 0 {
				return false
			}
		}
	}
	for h, p := range hops {
		at := cycle + int32(h)*c.hopLat
		u := c.freeUnit(p, at)
		if u < 0 {
			return false
		}
		c.free[c.poolOff[p]+u] = at + c.dii[k]
		c.unit[c.hopStart[k]+int32(h)] = u
	}
	return true
}

// freeUnit returns the unit of pool p free at cycle that has been free
// longest (smallest next-free time, lowest index on ties), or -1.
func (c *Core) freeUnit(p, cycle int32) int32 {
	best, bestAt := int32(-1), cycle+1
	for i, at := range c.free[c.poolOff[p] : c.poolOff[p]+c.poolLen[p]] {
		if at <= cycle && at < bestAt {
			best, bestAt = int32(i), at
		}
	}
	return best
}

// AppendProfile appends the completion profile of the last Run — U_i,
// for i in [0, L), counts the non-move nodes completing at cycle L−i —
// and returns the extended slice.
func (c *Core) AppendProfile(dst []int) []int {
	base := len(dst)
	for i := int32(0); i < c.l; i++ {
		dst = append(dst, 0)
	}
	for k, st := range c.start {
		if i := c.l - (st + c.lat[k]); c.flags[k]&NodeMove == 0 && i >= 0 && i < c.l {
			dst[base+int(i)]++
		}
	}
	return dst
}

// byPriority orders the ready list under the paper's ranking: ALAP
// level, then mobility, then more consumers first, then node index — a
// strict total order, so an unstable sort is deterministic.
type byPriority Core

func (o *byPriority) Len() int      { return len(o.ready) }
func (o *byPriority) Swap(i, j int) { o.ready[i], o.ready[j] = o.ready[j], o.ready[i] }
func (o *byPriority) Less(i, j int) bool {
	a, b := o.ready[i], o.ready[j]
	if o.alap[a] != o.alap[b] {
		return o.alap[a] < o.alap[b]
	}
	if ma, mb := o.alap[a]-o.asap[a], o.alap[b]-o.asap[b]; ma != mb {
		return ma < mb
	}
	if o.cons[a] != o.cons[b] {
		return o.cons[a] > o.cons[b]
	}
	return a < b
}

// resize returns s with length n, reusing its storage when large enough.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
