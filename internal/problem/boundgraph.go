package problem

import (
	"fmt"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// BuildBound converts an original graph plus a binding into the bound
// form of Figure 1 in the paper: every dependence that crosses clusters
// gets an explicit move operation. A value transferred to a cluster once
// is reused by all consumers there (one move per producer/destination
// pair). It returns the bound graph and the bound binding, where each
// move carries its destination cluster.
//
// The original graph is not modified; bound nodes keep their original
// names, and each move is named t<k> in insertion order, matching the
// paper's t1 notation. The Evaluator's virtual scheduling replicates
// this construction exactly — node for node, ID for ID — without
// building the graph; BuildBound is the materialized form for solutions
// a caller keeps.
func BuildBound(g *dfg.Graph, binding []int) (*dfg.Graph, []int, error) {
	if len(binding) != g.NumNodes() {
		return nil, nil, fmt.Errorf("problem: binding has %d entries for %d nodes", len(binding), g.NumNodes())
	}
	if g.NumMoves() != 0 {
		return nil, nil, fmt.Errorf("problem: BuildBound expects an original graph; %q already has moves", g.Name())
	}
	b := dfg.NewBuilder(g.Name())
	inputs := make([]dfg.Value, g.NumInputs())
	for i := range inputs {
		inputs[i] = b.Input(g.InputName(i))
	}
	// mapped[id] is the bound-graph value of original node id in its home
	// cluster; moved[(id,c)] the value after transfer into cluster c.
	mapped := make([]dfg.Value, g.NumNodes())
	type mvKey struct{ id, cluster int }
	moved := make(map[mvKey]dfg.Value)
	var boundBinding []int
	nMoves := 0

	for _, n := range dfg.TopoOrder(g) {
		c := binding[n.ID()]
		operands := make([]dfg.Value, len(n.Operands()))
		for i, o := range n.Operands() {
			if o.IsInput() {
				// Block inputs are assumed available where needed at
				// entry; binding only manages values produced inside
				// the block (paper, Section 2).
				operands[i] = inputs[o.Input()]
				continue
			}
			u := o.Node()
			if binding[u.ID()] == c {
				operands[i] = mapped[u.ID()]
				continue
			}
			key := mvKey{u.ID(), c}
			mv, ok := moved[key]
			if !ok {
				nMoves++
				name := fmt.Sprintf("t%d", nMoves)
				for b.HasNode(name) || g.NodeByName(name) != nil {
					name += "'"
				}
				mv = b.NamedMove(name, mapped[u.ID()])
				moved[key] = mv
				boundBinding = append(boundBinding, c)
			}
			operands[i] = mv
		}
		v := b.Named(n.Name(), n.Op(), n.Imm(), operands...)
		mapped[n.ID()] = v
		boundBinding = append(boundBinding, c)
	}
	// Mark live-outs afterwards, in the original graph's output order, so
	// Outputs() of the bound graph corresponds index-for-index with the
	// original's (simulation results stay comparable).
	for _, n := range g.Outputs() {
		b.Output(mapped[n.ID()])
	}
	bg := b.Graph()
	// boundBinding was appended in creation order, which is the builder's
	// node ID order, so it is already indexed correctly.
	if len(boundBinding) != bg.NumNodes() {
		return nil, nil, fmt.Errorf("problem: internal error: %d binding entries for %d bound nodes", len(boundBinding), bg.NumNodes())
	}
	return bg, boundBinding, nil
}

// Materialize builds the real bound graph for a binding and
// list-schedules it — the expensive, allocation-heavy form of what
// Evaluator.Evaluate computes virtually. Callers invoke it once per
// solution they keep, never per candidate.
func Materialize(g *dfg.Graph, dp *machine.Datapath, binding []int) (*dfg.Graph, []int, *sched.Schedule, error) {
	bg, bb, err := BuildBound(g, binding)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sched.List(bg, dp, bb)
	if err != nil {
		return nil, nil, nil, err
	}
	return bg, bb, s, nil
}
