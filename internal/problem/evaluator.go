package problem

import (
	"fmt"
	"sort"

	"vliwbind/internal/dfg"
)

// Eval is the compact outcome of virtually scheduling one candidate
// binding: the paper's two figures of merit. Everything richer — the
// completion profile behind Q_U, per-node start cycles — stays in the
// Evaluator's scratch until explicitly appended out, so evaluating a
// candidate allocates nothing.
type Eval struct {
	L int // schedule latency
	M int // number of synthesized data transfers
}

// Evaluator answers the inner question of every binding algorithm —
// "what (L, M) does this candidate binding schedule to?" — without
// materializing a bound graph or a Schedule. It replicates
// BuildBound + sched.List operation for operation: the same move
// synthesis order, the same ASAP/ALAP analysis, the same priority
// ranking and unit selection, so its answer is bit-identical to the
// materialized path, but every intermediate lives in preallocated
// scratch reused across calls.
//
// An Evaluator is NOT safe for concurrent use; create one per worker
// (NewEvaluator is cheap) and share the immutable Problem underneath.
type Evaluator struct {
	p *Problem

	// Generation-stamped (producer, destination cluster) → virtual move
	// lookup; bumping gen invalidates the whole table in O(1).
	gen     int32
	moveTab []int32
	moveGen []int32

	vOf []int32 // original node ID → virtual node index, per call

	// The virtual bound graph of the last Evaluate. Virtual node indexes
	// are exactly the node IDs BuildBound would assign: moves are created
	// at first use, immediately before their first consumer.
	nv       int
	nMoves   int
	moveWork int32 // Σ hops·(moveDII+moveLat) over moves, for the stall guard
	vID      []int32 // original node ID; for moves, the producer's ID
	vIsMove  []bool
	vCluster []int32 // moves carry their destination cluster
	vLat     []int32 // latency per virtual node, flattened by buildVirtual

	// Dependence structure in CSR form, rebuilt per call.
	predStart []int32
	preds     []int32
	succStart []int32
	succs     []int32
	succCnt   []int32

	// Per-virtual-node schedule state.
	asap, alap []int32
	earliest   []int32
	start      []int32
	pending    []int32

	ready, wake []int32
	unitFree    []int32

	lastL   int32
	profile []int32
	sorter  sort.Interface
}

// NewEvaluator creates an evaluator with scratch sized for the problem's
// worst case (every dependence crossing clusters).
func (p *Problem) NewEvaluator() *Evaluator {
	maxV := p.n + len(p.preds) // every pred edge spawns at most one move
	maxE := 2 * len(p.preds)   // original edges + one edge per move
	e := &Evaluator{
		p:         p,
		moveTab:   make([]int32, p.n*p.clusters),
		moveGen:   make([]int32, p.n*p.clusters),
		vOf:       make([]int32, p.n),
		vID:       make([]int32, maxV),
		vIsMove:   make([]bool, maxV),
		vCluster:  make([]int32, maxV),
		vLat:      make([]int32, maxV),
		predStart: make([]int32, maxV+1),
		preds:     make([]int32, 0, maxE),
		succStart: make([]int32, maxV+1),
		succs:     make([]int32, maxE),
		succCnt:   make([]int32, maxV),
		asap:      make([]int32, maxV),
		alap:      make([]int32, maxV),
		earliest:  make([]int32, maxV),
		start:     make([]int32, maxV),
		pending:   make([]int32, maxV),
		ready:     make([]int32, 0, maxV),
		wake:      make([]int32, 0, maxV),
		unitFree:  make([]int32, p.unitPoolLen),
	}
	e.sorter = (*readyOrder)(e) // one interface value, reused by every sort
	return e
}

// Problem returns the immutable problem this evaluator schedules against.
func (e *Evaluator) Problem() *Problem { return e.p }

func (e *Evaluator) latOf(k int32) int32 { return e.vLat[k] }

func (e *Evaluator) diiOf(k int32) int32 {
	if e.vIsMove[k] {
		return e.p.moveDII
	}
	return e.p.dii[e.vID[k]]
}

func (e *Evaluator) vPredsOf(k int32) []int32 {
	return e.preds[e.predStart[k]:e.predStart[k+1]]
}

func (e *Evaluator) vSuccsOf(k int32) []int32 {
	return e.succs[e.succStart[k]:e.succStart[k+1]]
}

// numConsumers mirrors dfg.Node.NumConsumers on the virtual bound graph:
// distinct consumers plus one for a live-out result. Moves are never
// live-out; regular nodes keep the original graph's output flag.
func (e *Evaluator) numConsumers(k int32) int32 {
	c := e.succStart[k+1] - e.succStart[k]
	if !e.vIsMove[k] && e.p.output[e.vID[k]] {
		c++
	}
	return c
}

// readyOrder sorts the ready list under the paper's priority ranking
// (ALAP, mobility, consumer count, then node ID — a strict total order,
// so an unstable sort is deterministic). It is the Evaluator itself
// under another type: one persistent sort.Interface value, so sorting
// allocates nothing.
type readyOrder Evaluator

func (o *readyOrder) Len() int { return len(o.ready) }

func (o *readyOrder) Swap(i, j int) { o.ready[i], o.ready[j] = o.ready[j], o.ready[i] }

func (o *readyOrder) Less(i, j int) bool {
	e := (*Evaluator)(o)
	a, b := e.ready[i], e.ready[j]
	if e.alap[a] != e.alap[b] {
		return e.alap[a] < e.alap[b]
	}
	ma, mb := e.alap[a]-e.asap[a], e.alap[b]-e.asap[b]
	if ma != mb {
		return ma < mb
	}
	ca, cb := e.numConsumers(a), e.numConsumers(b)
	if ca != cb {
		return ca > cb
	}
	return a < b
}

// Evaluate virtually binds and schedules one candidate. The binding is
// read, never retained; the result's richer parts (completion profile,
// start cycles) remain readable via AppendQualityU / AppendStarts until
// the next Evaluate on this evaluator.
func (e *Evaluator) Evaluate(bn []int) (Eval, error) {
	if err := e.validate(bn); err != nil {
		return Eval{}, err
	}
	if err := e.buildVirtual(bn); err != nil {
		return Eval{}, err
	}
	e.buildSucc()
	L, err := e.schedule(e.computeWindows())
	if err != nil {
		return Eval{}, err
	}
	e.lastL = L
	return Eval{L: int(L), M: e.nMoves}, nil
}

// validate mirrors sched.List's checks on the bound graph; moves need no
// extra check because their destination is always a consumer's (already
// validated) cluster.
func (e *Evaluator) validate(bn []int) error {
	p := e.p
	if len(bn) != p.n {
		return fmt.Errorf("problem: binding has %d entries for %d nodes", len(bn), p.n)
	}
	for id := 0; id < p.n; id++ {
		c := bn[id]
		if c < 0 || c >= p.clusters {
			return fmt.Errorf("problem: node %s bound to invalid cluster %d", p.g.Node(id).Name(), c)
		}
		if p.poolLen[c*dfg.NumFUTypes+int(p.fut[id])] == 0 {
			n := p.g.Node(id)
			return fmt.Errorf("problem: node %s (%s) bound to cluster %d with no %s units",
				n.Name(), n.Op(), c, n.FUType())
		}
	}
	return nil
}

// buildVirtual is phase 1: synthesize the bound graph virtually, in
// exactly BuildBound's node order — for each original node in
// topological order, first the not-yet-existing moves its cross-cluster
// operands need (in first-use order), then the node itself.
func (e *Evaluator) buildVirtual(bn []int) error {
	p := e.p
	e.gen++
	if e.gen <= 0 { // generation counter wrapped; invalidate explicitly
		for i := range e.moveGen {
			e.moveGen[i] = 0
		}
		e.gen = 1
	}
	nv := int32(0)
	e.preds = e.preds[:0]
	e.moveWork = 0
	nMoves := 0
	for _, id := range p.order {
		c := int32(bn[id])
		for _, pr := range p.predsOf(id) {
			if int32(bn[pr]) == c {
				continue
			}
			slot := pr*int32(p.clusters) + c
			if e.moveGen[slot] == e.gen {
				continue
			}
			if p.numBuses == 0 {
				return fmt.Errorf("problem: binding needs moves but datapath has no interconnect")
			}
			e.vID[nv] = pr
			e.vIsMove[nv] = true
			e.vCluster[nv] = c
			// A routed move pays MoveLat per hop; on single-hop
			// machines this is exactly the scalar model's MoveLat.
			hops := int32(len(p.routeOf(int32(bn[pr]), c)))
			e.vLat[nv] = hops * p.moveLat
			e.moveWork += hops * (p.moveDII + p.moveLat)
			e.predStart[nv] = int32(len(e.preds))
			e.preds = append(e.preds, e.vOf[pr])
			e.moveGen[slot] = e.gen
			e.moveTab[slot] = nv
			nv++
			nMoves++
		}
		e.vID[nv] = id
		e.vIsMove[nv] = false
		e.vCluster[nv] = c
		e.vLat[nv] = p.lat[id]
		e.predStart[nv] = int32(len(e.preds))
		for _, pr := range p.predsOf(id) {
			if int32(bn[pr]) == c {
				e.preds = append(e.preds, e.vOf[pr])
			} else {
				e.preds = append(e.preds, e.moveTab[pr*int32(p.clusters)+c])
			}
		}
		e.vOf[id] = nv
		nv++
	}
	e.predStart[nv] = int32(len(e.preds))
	e.nv, e.nMoves = int(nv), nMoves
	return nil
}

// buildSucc derives the successor CSR: pred lists are distinct per
// consumer, so each succ list is distinct too, appended in
// consumer-creation order — the same shape dfg.Node.Succs has on the
// materialized bound graph. On return succCnt holds each node's
// successor count.
func (e *Evaluator) buildSucc() {
	nv := int32(e.nv)
	cnt := e.succCnt[:nv]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, pr := range e.preds {
		cnt[pr]++
	}
	ss := e.succStart[:nv+1]
	ss[0] = 0
	for k := int32(0); k < nv; k++ {
		ss[k+1] = ss[k] + cnt[k]
		cnt[k] = 0
	}
	for k := int32(0); k < nv; k++ {
		for _, pr := range e.vPredsOf(k) {
			e.succs[ss[pr]+cnt[pr]] = k
			cnt[pr]++
		}
	}
}

// computeWindows is phase 2: ASAP/ALAP of the virtual bound graph at its
// critical path, matching dfg.Analyze(bound, lat, 0). ALAP comes from a
// reverse pass relaxing predecessors: when node k is reached its own
// ALAP is final, because every successor (higher index) has already
// pushed its bound. Returns the critical-path target.
func (e *Evaluator) computeWindows() int32 {
	nv := int32(e.nv)
	target := int32(0)
	for k := int32(0); k < nv; k++ {
		s := int32(0)
		for _, pr := range e.vPredsOf(k) {
			if t := e.asap[pr] + e.latOf(pr); t > s {
				s = t
			}
		}
		e.asap[k] = s
		if fin := s + e.latOf(k); fin > target {
			target = fin
		}
	}
	al := e.alap[:nv]
	for i := range al {
		al[i] = target
	}
	for k := nv - 1; k >= 0; k-- {
		a := e.alap[k] - e.latOf(k)
		e.alap[k] = a
		for _, pr := range e.vPredsOf(k) {
			if a < e.alap[pr] {
				e.alap[pr] = a
			}
		}
	}
	return target
}

// schedule is phase 3: the list-scheduling cycle loop, mirroring
// sched.List cycle for cycle. It starts from clear resource tables with
// no node issued and the sources ready (ALAP-held when they are loads),
// and returns the schedule latency.
func (e *Evaluator) schedule(target int32) (int32, error) {
	p := e.p
	nv := int32(e.nv)
	for i := range e.unitFree {
		e.unitFree[i] = 0
	}
	e.ready = e.ready[:0]
	for k := int32(0); k < nv; k++ {
		e.start[k] = -1
		e.earliest[k] = 0
		np := e.predStart[k+1] - e.predStart[k]
		e.pending[k] = np
		if np == 0 {
			if !e.vIsMove[k] && p.isLoad[e.vID[k]] {
				e.earliest[k] = e.alap[k]
			}
			e.ready = append(e.ready, k)
		}
	}
	unscheduled, L := nv, int32(0)
	totalWork := p.baseWork + e.moveWork
	for cycle := int32(0); unscheduled > 0; cycle++ {
		if cycle > target+totalWork+1 {
			return 0, fmt.Errorf("problem: no progress by cycle %d; resource model inconsistent", cycle)
		}
		sort.Sort(e.sorter)
		issuedAny := true
		for issuedAny {
			issuedAny = false
			w := 0
			e.wake = e.wake[:0]
			for _, k := range e.ready {
				if e.earliest[k] > cycle {
					e.ready[w] = k
					w++
					continue
				}
				if e.vIsMove[k] {
					if !e.reserveMove(k, cycle) {
						e.ready[w] = k
						w++
						continue
					}
				} else {
					key := e.vCluster[k]*int32(dfg.NumFUTypes) + p.fut[e.vID[k]]
					pool := e.unitFree[p.poolOff[key] : p.poolOff[key]+p.poolLen[key]]
					u := freeUnit32(pool, cycle)
					if u < 0 {
						e.ready[w] = k
						w++
						continue
					}
					pool[u] = cycle + e.diiOf(k)
				}
				e.start[k] = cycle
				if fin := cycle + e.latOf(k); fin > L {
					L = fin
				}
				unscheduled--
				issuedAny = true
				for _, s := range e.vSuccsOf(k) {
					e.pending[s]--
					if e.pending[s] == 0 {
						ev := int32(0)
						for _, pr := range e.vPredsOf(s) {
							if f := e.start[pr] + e.latOf(pr); f > ev {
								ev = f
							}
						}
						if !e.vIsMove[s] && p.isLoad[e.vID[s]] && e.alap[s] > ev {
							ev = e.alap[s]
						}
						e.earliest[s] = ev
						e.wake = append(e.wake, s)
					}
				}
			}
			e.ready = append(e.ready[:w], e.wake...)
			if issuedAny {
				sort.Sort(e.sorter)
			}
		}
	}
	return L, nil
}

// reserveMove books the interconnect channels move k needs to issue at
// cycle and reports whether it could, leaving no state touched when
// some hop's link is full. Hop h occupies
// one channel of its link during [cycle+h·MoveLat, +MoveDII) —
// store-and-forward, mirroring sched.List. Single-hop routes (every
// route on bus and p2p machines, and all of them on rings of up to
// three clusters) take the exact pre-interconnect fast path: one
// freeUnit32 probe and commit against the link's slice of unitFree,
// which for the shared bus is the whole legacy bus pool.
func (e *Evaluator) reserveMove(k, cycle int32) bool {
	p := e.p
	// The destination is the move's own cluster, the source its single
	// producer's.
	route := p.routeOf(e.vCluster[e.preds[e.predStart[k]]], e.vCluster[k])
	if len(route) == 1 {
		l := route[0]
		base := p.busOff + p.linkOff[l]
		pool := e.unitFree[base : base+p.linkCap[l]]
		u := freeUnit32(pool, cycle)
		if u < 0 {
			return false
		}
		pool[u] = cycle + p.moveDII
		return true
	}
	// All hops reserve together or not at all; shortest-path routes never
	// repeat a link, so the feasibility probes are independent.
	for h, l := range route {
		base := p.busOff + p.linkOff[l]
		if freeUnit32(e.unitFree[base:base+p.linkCap[l]], cycle+int32(h)*p.moveLat) < 0 {
			return false
		}
	}
	for h, l := range route {
		base := p.busOff + p.linkOff[l]
		pool := e.unitFree[base : base+p.linkCap[l]]
		at := cycle + int32(h)*p.moveLat
		pool[freeUnit32(pool, at)] = at + p.moveDII
	}
	return true
}

// freeUnit32 is sched.List's unit selection: the unit free at the cycle
// whose next-free time is smallest, earliest index winning ties, or -1.
func freeUnit32(pool []int32, cycle int32) int {
	best, bestAt := -1, cycle+1
	for i, at := range pool {
		if at <= cycle && at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}

// AppendQualityU appends the paper's Q_U vector of the last Evaluate —
// the latency followed by the completion profile (U_0 … U_{L-1}), where
// U_i counts the regular operations completing at cycle L−i — and
// returns the extended slice. Identical to prepending Schedule.L to
// Schedule.CompletionProfile(0) on the materialized schedule.
func (e *Evaluator) AppendQualityU(dst []int) []int {
	L := e.lastL
	if int32(cap(e.profile)) < L {
		e.profile = make([]int32, L)
	}
	prof := e.profile[:L]
	for i := range prof {
		prof[i] = 0
	}
	for k := int32(0); k < int32(e.nv); k++ {
		if e.vIsMove[k] {
			continue
		}
		if i := L - (e.start[k] + e.latOf(k)); i >= 0 && i < L {
			prof[i]++
		}
	}
	dst = append(dst, int(L))
	for _, u := range prof {
		dst = append(dst, int(u))
	}
	return dst
}

// AppendStarts appends the issue cycle of every virtual bound node of
// the last Evaluate, in bound-node-ID order — exactly Schedule.Start of
// the materialized schedule. Primarily a differential-testing hook.
func (e *Evaluator) AppendStarts(dst []int) []int {
	for k := 0; k < e.nv; k++ {
		dst = append(dst, int(e.start[k]))
	}
	return dst
}

// NumBoundNodes is the virtual bound graph's node count from the last
// Evaluate (original operations plus synthesized moves).
func (e *Evaluator) NumBoundNodes() int { return e.nv }
