// Package bind implements the paper's primary contribution: the two-phase
// operation binding algorithm of Lapinskii, Jacome and de Veciana
// (DAC 2001). Phase one (Initial) is the greedy B-INIT binder driven by
// load profiles and transfer penalties, wrapped in a driver that sweeps
// the load-profile latency and the binding direction. Phase two (Improve)
// is the B-ITER boundary-perturbation improver guided by the lexicographic
// quality vectors Q_U and Q_M. Bind runs both.
//
// Candidate evaluation — the inner loop of both phases — runs on the
// shared problem.Evaluator core (see internal/problem), which schedules
// bindings virtually without materializing a bound graph per candidate;
// this package materializes full Results only for the solutions it
// returns.
package bind

import (
	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/problem"
	"vliwbind/internal/sched"
)

// BuildBound converts an original graph plus a binding into the bound form
// of Figure 1 in the paper: every dependence that crosses clusters gets an
// explicit move operation. A value transferred to a cluster once is reused
// by all consumers there (one move per producer/destination pair). It
// returns the bound graph and the bound binding, where each move carries
// its destination cluster.
//
// The construction itself lives in the problem package (the shared
// evaluation core); this re-export keeps the binding algorithm's public
// surface in one place.
func BuildBound(g *dfg.Graph, binding []int) (*dfg.Graph, []int, error) {
	return problem.BuildBound(g, binding)
}

// Result packages a complete binding solution: the per-node cluster
// assignment on the original graph, the derived bound graph (with moves)
// and its binding, and the evaluated schedule.
type Result struct {
	// Graph is the original (unbound) graph the binding refers to.
	Graph *dfg.Graph
	// Datapath the solution was produced for.
	Datapath *machine.Datapath
	// Binding maps original node IDs to clusters.
	Binding []int
	// Bound is the graph with data transfers inserted.
	Bound *dfg.Graph
	// BoundBinding maps bound node IDs to clusters (moves carry their
	// destination cluster).
	BoundBinding []int
	// Schedule is the list schedule of Bound; its L is the paper's
	// primary figure of merit.
	Schedule *sched.Schedule
	// Degraded reports that the run producing this result was cut short —
	// by context cancellation, a deadline, or an isolated fault — and this
	// is the best solution certified up to that point. A degraded result
	// is a fully valid binding (same invariants as a complete run) and,
	// for BindContext, never worse than plain B-INIT's (L, moves) on the
	// same input, because degradation only ever truncates the monotone
	// improvement phase.
	Degraded bool
	// Budget is why the run was cut short: the context cause, or the
	// recovered fault. Nil unless Degraded.
	Budget error
}

// L is the schedule latency of the solution.
func (r *Result) L() int { return r.Schedule.L }

// Moves is the number of inserted data transfers (the paper's M).
func (r *Result) Moves() int { return r.Bound.NumMoves() }

// Evaluate derives the bound graph for a binding and list-schedules it,
// yielding the (L, M) the paper reports for a solution. This is the
// materializing evaluation — the right call for a solution being kept or
// inspected. Algorithms scoring many candidates should use a
// problem.Evaluator instead, which computes the same (L, M) without
// building a graph or a schedule per call.
func Evaluate(g *dfg.Graph, dp *machine.Datapath, binding []int) (*Result, error) {
	bg, bb, s, err := problem.Materialize(g, dp, binding)
	if err != nil {
		return nil, err
	}
	return &Result{
		Graph:        g,
		Datapath:     dp,
		Binding:      append([]int(nil), binding...),
		Bound:        bg,
		BoundBinding: bb,
		Schedule:     s,
	}, nil
}
