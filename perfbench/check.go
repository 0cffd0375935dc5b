package main

import (
	"fmt"
	"math"
	"slices"

	"vliwbind"
	"vliwbind/internal/explore"
	"vliwbind/internal/regpressure"
)

// The out-of-band checker. It runs after the timed window and trusts
// nothing the measured calls reported: answers are re-derived from
// their bindings, certified, and executed against the reference
// dataflow evaluation.

// probeInputs builds two input vectors of exact dyadic rationals, so the
// simulated and reference arithmetic must agree bit for bit.
func probeInputs(n int) [][]float64 {
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 0.75 + float64(i%7)*0.25
		b[i] = 2 - float64((i*5)%11)*0.125
	}
	return [][]float64{a, b}
}

// answer is what an operation reported: a binding of g on dp and the
// L and M it claims.
type answer struct {
	g       *vliwbind.Graph
	dp      *vliwbind.Datapath
	binding []int
	l, m    int
}

// answerOf keeps only what a result reports, so a window can hold many
// answers without holding their graphs and schedules.
func answerOf(res *vliwbind.Result) answer {
	return answer{res.Graph, res.Datapath, res.Binding, res.L(), res.Moves()}
}

// checkAnswer re-derives a reported answer with EvaluateBinding and
// certifies the re-derived result with AuditResult and VerifySchedule.
func checkAnswer(a answer) (*vliwbind.Result, error) {
	res, err := vliwbind.EvaluateBinding(a.g, a.dp, a.binding)
	if err != nil {
		return nil, fmt.Errorf("re-derive: %w", err)
	}
	if res.L() != a.l || res.Moves() != a.m {
		return nil, fmt.Errorf("reported L/M %d/%d, binding re-derives to %d/%d", a.l, a.m, res.L(), res.Moves())
	}
	if err := vliwbind.AuditResult(res); err != nil {
		return nil, err
	}
	for _, in := range probeInputs(a.g.NumInputs()) {
		if err := vliwbind.VerifySchedule(res.Schedule, in); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkResult checks an in-process result: the answer it reports, and
// the result object itself (its bound graph and schedule must be the
// ones its binding derives).
func checkResult(res *vliwbind.Result) error {
	if res == nil || res.Schedule == nil || res.Bound == nil {
		return fmt.Errorf("incomplete result")
	}
	if res.Degraded {
		return fmt.Errorf("degraded result: %v", res.Budget)
	}
	if _, err := checkAnswer(answerOf(res)); err != nil {
		return err
	}
	return vliwbind.AuditResult(res)
}

// checkSame reports whether a repeated answer equals the reference one.
func checkSame(what string, a, ref answer) error {
	if a.l != ref.l || a.m != ref.m || !slices.Equal(a.binding, ref.binding) {
		return fmt.Errorf("%s: answer L/M %d/%d differs from reference %d/%d (or its binding does)", what, a.l, a.m, ref.l, ref.m)
	}
	return nil
}

// checkPoint checks one bound design point against the answer its bind
// call returned.
func checkPoint(p explore.Point, a *answer) error {
	if a == nil {
		return fmt.Errorf("point %s: no bind answer recorded", p.Spec)
	}
	res, err := checkAnswer(*a)
	if err != nil {
		return fmt.Errorf("point %s: %w", p.Spec, err)
	}
	if p.L != a.l || p.Moves != a.m {
		return fmt.Errorf("point %s: vector L/M %d/%d, bind answer %d/%d", p.Spec, p.L, p.Moves, a.l, a.m)
	}
	if peak := regpressure.Analyze(res.Schedule).Peak; p.Pressure != peak {
		return fmt.Errorf("point %s: vector pressure %d, schedule peak %d", p.Spec, p.Pressure, peak)
	}
	return nil
}

// dominates is an independent restatement of the explorer's dominance:
// every axis minimized, an absent II (0) worse than any achieved one.
func dominates(a, b explore.Vector) bool {
	ii := func(v int) int {
		if v <= 0 {
			return math.MaxInt
		}
		return v
	}
	av := []int{a.L, a.Moves, a.Pressure, ii(a.II), a.Ports, a.Clusters}
	bv := []int{b.L, b.Moves, b.Pressure, ii(b.II), b.Ports, b.Clusters}
	strict := false
	for i := range av {
		if av[i] > bv[i] {
			return false
		}
		strict = strict || av[i] < bv[i]
	}
	return strict
}

// checkFrontier recomputes the Pareto frontier over the bound points by
// brute force and returns the specs whose reported membership differs.
func checkFrontier(points []explore.Point) []string {
	var bad []string
	for i, p := range points {
		want := !p.Pruned && !p.Degraded
		for j, q := range points {
			if want && j != i && !q.Pruned && !q.Degraded && dominates(q.Vector, p.Vector) {
				want = false
			}
		}
		if p.Pareto != want {
			bad = append(bad, p.Spec)
		}
	}
	return bad
}
