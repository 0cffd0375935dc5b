package problem

import (
	"fmt"

	"vliwbind/internal/sched"
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
// materializing a bound graph or a Schedule. It synthesizes the bound
// graph virtually, node for node and ID for ID as BuildBound would, and
// feeds it straight into the one list scheduler, sched.Core, which
// sched.List drives for the materialized graph; so its answer is
// bit-identical to the materialized path, but every intermediate lives
// in scratch reused across calls.
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

	vOf    []int32 // original node ID → virtual node index, per call
	nMoves int     // synthesized moves of the last Evaluate

	// core holds the virtual bound graph of the last Evaluate and its
	// schedule. Virtual node indexes are exactly the node IDs BuildBound
	// would assign: moves are created at first use, immediately before
	// their first consumer.
	core *sched.Core
}

// NewEvaluator creates an evaluator with scratch sized for the problem's
// worst case (every dependence crossing clusters).
func (p *Problem) NewEvaluator() *Evaluator {
	maxV := p.n + len(p.preds) // every pred edge spawns at most one move
	maxE := 2 * len(p.preds)   // original edges + one edge per move
	return &Evaluator{
		p:       p,
		moveTab: make([]int32, p.n*p.clusters),
		moveGen: make([]int32, p.n*p.clusters),
		vOf:     make([]int32, p.n),
		core:    sched.NewCore(p.dp, maxV, maxE),
	}
}

// Problem returns the immutable problem this evaluator schedules against.
func (e *Evaluator) Problem() *Problem { return e.p }

// Evaluate virtually binds and schedules one candidate. The binding is
// read, never retained; the result's richer parts (completion profile,
// start cycles) of a successful Evaluate remain readable via
// AppendQualityU / AppendStarts until the next Evaluate on this
// evaluator.
func (e *Evaluator) Evaluate(bn []int) (Eval, error) {
	if err := e.validate(bn); err != nil {
		return Eval{}, err
	}
	if err := e.buildVirtual(bn); err != nil {
		return Eval{}, err
	}
	if err := e.core.Run(); err != nil {
		return Eval{}, err
	}
	return Eval{L: int(e.core.L()), M: e.nMoves}, nil
}

// validate applies sched.List's checks to the bound graph; moves need no
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
		if p.dp.NumFU(c, p.fut[id]) == 0 {
			n := p.g.Node(id)
			return fmt.Errorf("problem: node %s (%s) bound to cluster %d with no %s units",
				n.Name(), n.Op(), c, n.FUType())
		}
	}
	return nil
}

// buildVirtual synthesizes the bound graph into the core, in exactly
// BuildBound's node order — for each original node in topological
// order, first the not-yet-existing moves its cross-cluster operands
// need (in first-use order), then the node itself.
func (e *Evaluator) buildVirtual(bn []int) error {
	p, co := e.p, e.core
	e.gen++
	if e.gen <= 0 { // generation counter wrapped; invalidate explicitly
		for i := range e.moveGen {
			e.moveGen[i] = 0
		}
		e.gen = 1
	}
	co.Reset()
	e.nMoves = 0
	for _, id := range p.order {
		c := bn[id]
		for _, pr := range p.predsOf(id) {
			if bn[pr] == c {
				continue
			}
			slot := int(pr)*p.clusters + c
			if e.moveGen[slot] == e.gen {
				continue
			}
			if p.dp.NumBuses() == 0 {
				return fmt.Errorf("problem: binding needs moves but datapath has no interconnect")
			}
			// A routed move pays MoveLat per hop; on single-hop
			// machines this is exactly the scalar model's MoveLat.
			route := p.dp.Route(bn[pr], c)
			k := co.AddNode(int32(len(route))*p.moveLat, p.moveDII, sched.NodeMove)
			for _, l := range route {
				co.AddHop(int32(l))
			}
			co.AddPred(e.vOf[pr])
			e.moveGen[slot] = e.gen
			e.moveTab[slot] = k
			e.nMoves++
		}
		e.vOf[id] = co.AddNode(p.lat[id], p.dii[id], p.flags[id])
		co.AddHop(co.UnitPool(c, p.fut[id]))
		for _, pr := range p.predsOf(id) {
			if bn[pr] == c {
				co.AddPred(e.vOf[pr])
			} else {
				co.AddPred(e.moveTab[int(pr)*p.clusters+c])
			}
		}
	}
	return nil
}

// AppendQualityU appends the paper's Q_U vector of the last Evaluate —
// the latency followed by the completion profile (U_0 … U_{L-1}), where
// U_i counts the regular operations completing at cycle L−i — and
// returns the extended slice. Identical to prepending Schedule.L to
// Schedule.CompletionProfile(0) on the materialized schedule.
func (e *Evaluator) AppendQualityU(dst []int) []int {
	return e.core.AppendProfile(append(dst, int(e.core.L())))
}

// AppendStarts appends the issue cycle of every virtual bound node of
// the last Evaluate, in bound-node-ID order — exactly Schedule.Start of
// the materialized schedule. Primarily a differential-testing hook.
func (e *Evaluator) AppendStarts(dst []int) []int {
	for k := 0; k < e.core.NumNodes(); k++ {
		dst = append(dst, int(e.core.Start(k)))
	}
	return dst
}

// NumBoundNodes is the virtual bound graph's node count from the last
// Evaluate (original operations plus synthesized moves).
func (e *Evaluator) NumBoundNodes() int { return e.core.NumNodes() }
