package problem

import (
	"fmt"
	"math/rand"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/sched"
)

// diffDatapaths spans the shapes that stress the evaluator differently:
// the paper's homogeneous machine, a heterogeneous one (clusters that
// cannot run multiplies), a single-bus machine (bus contention), and a
// pipelined-multiplier one (lat ≠ dii on one FU type plus a 2-cycle bus).
var diffDatapaths = []*machine.Datapath{
	machine.MustParse("[2,1|2,1]", machine.Config{}),
	machine.MustParse("[2,1|1,1|1,0]", machine.Config{}),
	machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1}),
	machine.MustParse("[2,1|2,1]", machine.Config{Mul: machine.ResourceSpec{Lat: 3, DII: 1}, MoveLat: 2}),
}

// checkAgainstMaterialized asserts that the virtual evaluation of bn
// agrees with BuildBound + sched.List on every observable the binding
// algorithms consume: L, M, the full Q_U vector, and the per-bound-node
// start cycles.
func checkAgainstMaterialized(t *testing.T, ev *Evaluator, bn []int) {
	t.Helper()
	p := ev.Problem()
	got, err := ev.Evaluate(bn)

	bg, bb, berr := BuildBound(p.Graph(), bn)
	var s *sched.Schedule
	if berr == nil {
		s, berr = sched.List(bg, p.Datapath(), bb)
	}
	if (err == nil) != (berr == nil) {
		t.Fatalf("binding %v: virtual err=%v, materialized err=%v", bn, err, berr)
	}
	if err != nil {
		return
	}
	if got.L != s.L || got.M != bg.NumMoves() {
		t.Fatalf("binding %v: virtual (L=%d, M=%d), materialized (L=%d, M=%d)",
			bn, got.L, got.M, s.L, bg.NumMoves())
	}
	if ev.NumBoundNodes() != bg.NumNodes() {
		t.Fatalf("binding %v: %d virtual bound nodes, %d materialized", bn, ev.NumBoundNodes(), bg.NumNodes())
	}
	wantQU := append([]int{s.L}, s.CompletionProfile(0)...)
	gotQU := ev.AppendQualityU(nil)
	if len(gotQU) != len(wantQU) {
		t.Fatalf("binding %v: Q_U length %d vs %d", bn, len(gotQU), len(wantQU))
	}
	for i := range wantQU {
		if gotQU[i] != wantQU[i] {
			t.Fatalf("binding %v: Q_U[%d] = %d, want %d (got %v want %v)",
				bn, i, gotQU[i], wantQU[i], gotQU, wantQU)
		}
	}
	starts := ev.AppendStarts(nil)
	for id, want := range s.Start {
		if starts[id] != want {
			t.Fatalf("binding %v: bound node %d (%s) starts at %d, want %d",
				bn, id, bg.Node(id).Name(), starts[id], want)
		}
	}
}

// TestEvaluatorMatchesMaterialized is the package's central differential
// test: on every benchmark kernel × datapath shape, a few hundred random
// bindings must evaluate bit-identically through the virtual path and
// the materialized BuildBound + sched.List path, reusing one Evaluator
// throughout (so scratch reuse bugs cannot hide).
func TestEvaluatorMatchesMaterialized(t *testing.T) {
	for _, k := range kernels.All() {
		g := k.Build()
		for di, dp := range diffDatapaths {
			t.Run(fmt.Sprintf("%s/dp%d", k.Name, di), func(t *testing.T) {
				p, err := New(g, dp)
				if err != nil {
					t.Fatal(err)
				}
				ev := p.NewEvaluator()
				rng := rand.New(rand.NewSource(int64(di)*1000 + int64(g.NumNodes())))
				trials := 60
				if testing.Short() {
					trials = 10
				}
				bn := make([]int, g.NumNodes())
				for trial := 0; trial < trials; trial++ {
					for _, n := range g.Nodes() {
						ts := dp.TargetSet(n.Op())
						bn[n.ID()] = ts[rng.Intn(len(ts))]
					}
					checkAgainstMaterialized(t, ev, bn)
				}
				// Degenerate corners: everything on one cluster (no moves),
				// and a maximally split binding.
				for _, n := range g.Nodes() {
					bn[n.ID()] = dp.TargetSet(n.Op())[0]
				}
				checkAgainstMaterialized(t, ev, bn)
				for _, n := range g.Nodes() {
					ts := dp.TargetSet(n.Op())
					bn[n.ID()] = ts[n.ID()%len(ts)]
				}
				checkAgainstMaterialized(t, ev, bn)
			})
		}
	}
}

// TestEvaluatorMatchesOnRandomGraphs widens the differential net beyond
// the benchmark suite: synthetic DAGs of varying shape and size.
func TestEvaluatorMatchesOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped with -short")
	}
	for seed := int64(1); seed <= 12; seed++ {
		g := kernels.Random(kernels.RandomConfig{
			Ops:      10 + int(seed)*7,
			Locality: 0.3 + float64(seed%3)*0.3,
			Seed:     seed,
		})
		dp := diffDatapaths[int(seed)%len(diffDatapaths)]
		p, err := New(g, dp)
		if err != nil {
			t.Fatal(err)
		}
		ev := p.NewEvaluator()
		rng := rand.New(rand.NewSource(seed))
		bn := make([]int, g.NumNodes())
		for trial := 0; trial < 20; trial++ {
			for _, n := range g.Nodes() {
				ts := dp.TargetSet(n.Op())
				bn[n.ID()] = ts[rng.Intn(len(ts))]
			}
			checkAgainstMaterialized(t, ev, bn)
		}
	}
}

// TestEvaluatorMatchesOnSpillReload covers the reload hold: codegen's
// spill stores a value right after its producer (OpStore) and reloads it
// before a late consumer (OpLoad), and the scheduler holds the reload to
// its ALAP level. Every binding of such a graph on two clusters must
// evaluate as the materialized path does.
func TestEvaluatorMatchesOnSpillReload(t *testing.T) {
	b := dfg.NewBuilder("spill")
	x, y := b.Input("x"), b.Input("y")
	v := b.Named("v", dfg.OpAdd, 0, x, y)
	st := b.Named("v.st", dfg.OpStore, 0, v)
	w := v
	for i := 0; i < 4; i++ {
		w = b.Mul(w, x)
	}
	ld := b.Named("v.ld1", dfg.OpLoad, 0, st)
	b.Output(b.Add(ld, w))
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	p, err := New(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	ev := p.NewEvaluator()
	bn := make([]int, g.NumNodes())
	for mask := 0; mask < 1<<len(bn); mask++ {
		for i := range bn {
			bn[i] = mask >> i & 1
		}
		checkAgainstMaterialized(t, ev, bn)
	}
	// On one cluster the reload's operand is ready long before its ALAP
	// level, so the hold is what sets its start.
	for i := range bn {
		bn[i] = 0
	}
	s, err := sched.List(g, dp, bn)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[ld.Node().ID()] <= s.Finish(st.Node()) {
		t.Fatalf("reload starts at %d, right when its store finishes (%d): no ALAP hold",
			s.Start[ld.Node().ID()], s.Finish(st.Node()))
	}
}

// TestEvaluatorRejectsBadBindings pins the validation behavior the
// binding algorithms rely on.
func TestEvaluatorRejectsBadBindings(t *testing.T) {
	g := kernels.All()[5].Build() // EWF
	dp := machine.MustParse("[2,1|1,0]", machine.Config{})
	p := Must(g, dp)
	ev := p.NewEvaluator()

	if _, err := ev.Evaluate(make([]int, 3)); err == nil {
		t.Error("accepted a mis-sized binding")
	}
	bad := make([]int, g.NumNodes())
	bad[0] = 7
	if _, err := ev.Evaluate(bad); err == nil {
		t.Error("accepted an out-of-range cluster")
	}
	bad[0] = -1
	if _, err := ev.Evaluate(bad); err == nil {
		t.Error("accepted a negative cluster")
	}
	// Bind a multiply onto the mul-less cluster 1.
	unsupported := make([]int, g.NumNodes())
	found := false
	for _, n := range g.Nodes() {
		if n.FUType() == dfg.FUMul {
			unsupported[n.ID()] = 1
			found = true
			break
		}
	}
	if !found {
		t.Fatal("EWF has no multiplies?")
	}
	if _, err := ev.Evaluate(unsupported); err == nil {
		t.Error("accepted a multiply on a cluster without multipliers")
	}
}

// TestProblemRejectsBoundGraphs: Problems are built on original graphs;
// an already-bound graph must be refused, matching BuildBound.
func TestProblemRejectsBoundGraphs(t *testing.T) {
	g := kernels.All()[6].Build() // ARF
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	bn := make([]int, g.NumNodes())
	for i := range bn {
		bn[i] = i % 2
	}
	bg, _, err := BuildBound(g, bn)
	if err != nil {
		t.Fatal(err)
	}
	if bg.NumMoves() == 0 {
		t.Fatal("alternating binding produced no moves")
	}
	if _, err := New(bg, dp); err == nil {
		t.Error("Problem accepted a bound graph")
	}
}

// TestProblemPrecomputedAnalysis cross-checks the constructor's derived
// analysis against the dfg package's reference implementations.
func TestProblemPrecomputedAnalysis(t *testing.T) {
	g := kernels.All()[4].Build() // FFT
	dp := machine.MustParse("[2,1|2,1]", machine.Config{Mul: machine.ResourceSpec{Lat: 2, DII: 1}})
	p := Must(g, dp)

	if got, want := p.CriticalPath(), dfg.CriticalPath(g, dp.Latency); got != want {
		t.Errorf("CriticalPath = %d, want %d", got, want)
	}
	times := dfg.Analyze(g, dp.Latency, 0)
	if p.Times().L != times.L {
		t.Errorf("Times().L = %d, want %d", p.Times().L, times.L)
	}
	// Height must match the longest latency-weighted path to a sink,
	// including the node's own latency (modulo scheduling's priority).
	want := make([]int, g.NumNodes())
	order := dfg.TopoOrder(g)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		h := dp.Latency(v.Op())
		for _, s := range v.Succs() {
			if hh := want[s.ID()] + dp.Latency(v.Op()); hh > h {
				h = hh
			}
		}
		want[v.ID()] = h
	}
	for id := range want {
		if p.Height(id) != want[id] {
			t.Errorf("Height(%d) = %d, want %d", id, p.Height(id), want[id])
		}
	}
	for _, n := range g.Nodes() {
		if p.Latency(n.ID()) != dp.Latency(n.Op()) {
			t.Errorf("Latency(%d) mismatch", n.ID())
		}
		if p.DII(n.ID()) != dp.DII(n.Op()) {
			t.Errorf("DII(%d) mismatch", n.ID())
		}
	}
	if p.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes = %d, want %d", p.NumNodes(), g.NumNodes())
	}
	if len(p.TopoOrder()) != g.NumNodes() {
		t.Errorf("TopoOrder length %d", len(p.TopoOrder()))
	}
}

// TestMaterializeAgreesWithEvaluate: the schedule a caller materializes
// for a winner must report exactly the Eval the virtual path promised.
func TestMaterializeAgreesWithEvaluate(t *testing.T) {
	g := kernels.All()[6].Build() // ARF
	dp := machine.MustParse("[2,1|1,1]", machine.Config{})
	p := Must(g, dp)
	ev := p.NewEvaluator()
	bn := make([]int, g.NumNodes())
	for i := range bn {
		bn[i] = i % 2
	}
	for _, n := range g.Nodes() {
		if !dp.Supports(bn[n.ID()], n.Op()) {
			bn[n.ID()] = dp.TargetSet(n.Op())[0]
		}
	}
	want, err := ev.Evaluate(bn)
	if err != nil {
		t.Fatal(err)
	}
	bg, bb, s, err := Materialize(g, dp, bn)
	if err != nil {
		t.Fatal(err)
	}
	if s.L != want.L || bg.NumMoves() != want.M {
		t.Fatalf("Materialize (L=%d, M=%d) != Evaluate (L=%d, M=%d)", s.L, bg.NumMoves(), want.L, want.M)
	}
	if len(bb) != bg.NumNodes() {
		t.Fatalf("bound binding has %d entries for %d nodes", len(bb), bg.NumNodes())
	}
	if err := sched.Check(s); err != nil {
		t.Fatal(err)
	}
}
