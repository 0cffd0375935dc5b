package profile

import (
	"math"
	"math/rand/v2"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// ladder builds w independent chains of depth d (all adds).
func ladder(w, d int) *dfg.Graph {
	b := dfg.NewBuilder("ladder")
	x, y := b.Input("x"), b.Input("y")
	for i := 0; i < w; i++ {
		v := b.Add(x, y)
		for j := 1; j < d; j++ {
			v = b.Add(v, y)
		}
		b.Output(v)
	}
	return b.Graph()
}

func TestCentralProfileZeroMobility(t *testing.T) {
	// 2 chains of depth 3 at L_PR = L_CP = 3: every op has mobility 0,
	// weight 1; two ALUs total -> central ALU load is 1.0 at every step.
	g := ladder(2, 3)
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.L != 3 {
		t.Fatalf("L = %d, want 3", s.L)
	}
	for tau := 0; tau < 3; tau++ {
		if got := s.CentralLoad(dfg.FUALU, tau); !almost(got, 1.0) {
			t.Errorf("central ALU load at %d = %v, want 1.0", tau, got)
		}
		if got := s.CentralLoad(dfg.FUMul, tau); !almost(got, 0) {
			t.Errorf("central MUL load at %d = %v, want 0", tau, got)
		}
	}
}

func TestCentralProfileSpreadsWithMobility(t *testing.T) {
	// One add at L_PR=3 has mobility 2: weight 1/3 over steps 0..2,
	// normalized by 2 ALUs -> 1/6 per step.
	b := dfg.NewBuilder("one")
	x, y := b.Input("x"), b.Input("y")
	b.Output(b.Add(x, y))
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	s, err := New(g, dp, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tau := 0; tau < 3; tau++ {
		if got := s.CentralLoad(dfg.FUALU, tau); !almost(got, 1.0/6) {
			t.Errorf("central load at %d = %v, want 1/6", tau, got)
		}
	}
}

func TestLPRBelowCriticalPathRaised(t *testing.T) {
	g := ladder(1, 4)
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	s, err := New(g, dp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.L != 4 {
		t.Errorf("L = %d, want 4 (raised to critical path)", s.L)
	}
}

func TestRejectsBoundGraph(t *testing.T) {
	b := dfg.NewBuilder("bg")
	x := b.Input("x")
	v := b.Neg(x)
	m := b.Move(v)
	b.Output(b.Neg(m))
	if _, err := New(b.Graph(), machine.MustParse("[1,1]", machine.Config{}), 0); err == nil {
		t.Fatal("New accepted a graph with moves")
	}
}

func TestFUCostDetectsOverload(t *testing.T) {
	// 4 independent adds, L_PR = 1 is raised to L_CP = 1... use depth 1,
	// so L=1 and each op has mobility 0. Datapath [1,1|1,1]: central load
	// = 4 ops / 2 ALUs = 2.0 (> 1). Commit two ops to cluster 0; the
	// third op in cluster 0 gives load 3.0 > max(2,1) -> cost 1.
	g := ladder(4, 1)
	dp := machine.MustParse("[1,1|1,1]", machine.Config{})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := g.Nodes()
	if c := s.FUCost(ops[0], 0); c != 0 {
		t.Errorf("first op FUCost = %d, want 0", c)
	}
	s.CommitOp(ops[0], 0)
	s.CommitOp(ops[1], 0)
	if c := s.FUCost(ops[2], 0); c != 1 {
		t.Errorf("third op in same cluster FUCost = %d, want 1", c)
	}
	if c := s.FUCost(ops[2], 1); c != 0 {
		t.Errorf("third op in empty cluster FUCost = %d, want 0", c)
	}
}

func TestFUCostNotOverloadedBelowCapacity(t *testing.T) {
	// Paper: "the penalty is not incurred if the corresponding cluster is
	// not overloaded, i.e. load_CL <= 1", even above the central load.
	// 2 adds on [2,1|2,1]: central = 2/4 = 0.5. Binding both to cluster 0
	// gives cluster load 1.0 -> no penalty despite exceeding central.
	g := ladder(2, 1)
	dp := machine.MustParse("[2,1|2,1]", machine.Config{})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := g.Nodes()
	s.CommitOp(ops[0], 0)
	if c := s.FUCost(ops[1], 0); c != 0 {
		t.Errorf("FUCost = %d, want 0 (cluster at exactly full load)", c)
	}
}

func TestFUCostUnsupportedCluster(t *testing.T) {
	b := dfg.NewBuilder("m")
	x := b.Input("x")
	b.Output(b.Mul(x, x))
	g := b.Graph()
	dp := machine.MustParse("[1,0|1,1]", machine.Config{})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.FUCost(g.Nodes()[0], 0); c <= s.L {
		t.Errorf("FUCost for unsupporting cluster = %d, want > L", c)
	}
}

func TestOpFrameExtendsByDII(t *testing.T) {
	// Unpipelined 2-cycle mul: frame extends dii-1 = 1 step past ALAP.
	b := dfg.NewBuilder("dii")
	x := b.Input("x")
	mul := b.Mul(x, x)
	add := b.Add(mul, x) // forces mul ALAP to 0 at L_CP
	b.Output(add)
	g := b.Graph()
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1, Mul: machine.ResourceSpec{Lat: 2}})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, w := s.opFrame(g.Nodes()[0])
	if lo != 0 || hi != 1 || !almost(w, 1.0) {
		t.Errorf("mul frame = [%d,%d] w=%v, want [0,1] w=1", lo, hi, w)
	}
}

func TestBusCostAndCommit(t *testing.T) {
	// Two producer->consumer chains; single bus; L_PR = L_CP = 2 means
	// both transfers have frame exactly [1,1] (consumer mobility 0) and
	// weight 1. One transfer fills the bus; a second overloads it.
	b := dfg.NewBuilder("bus")
	x, y := b.Input("x"), b.Input("y")
	p1 := b.Add(x, y)
	c1 := b.Add(p1, y)
	p2 := b.Sub(x, y)
	c2 := b.Sub(p2, y)
	b.Output(c1)
	b.Output(c2)
	g := b.Graph()
	dp := machine.MustParse("[2,1|2,1]", machine.Config{NumBuses: 1})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr1 := Transfer{Prod: p1.Node(), Cons: c1.Node(), Dest: 1}
	tr2 := Transfer{Prod: p2.Node(), Cons: c2.Node(), Dest: 1}
	if c := s.BusCost([]Transfer{tr1}); c != 0 {
		t.Errorf("first transfer BusCost = %d, want 0", c)
	}
	s.CommitTransfers([]Transfer{tr1})
	if got := s.BusLoad(1); !almost(got, 1.0) {
		t.Errorf("bus load at 1 = %v, want 1.0", got)
	}
	if c := s.BusCost([]Transfer{tr2}); c != 1 {
		t.Errorf("second transfer BusCost = %d, want 1", c)
	}
	// Re-committing the same (prod, dest) pair is free.
	if c := s.BusCost([]Transfer{tr1}); c != 0 {
		t.Errorf("duplicate transfer BusCost = %d, want 0", c)
	}
	s.CommitTransfers([]Transfer{tr1})
	if got := s.BusLoad(1); !almost(got, 1.0) {
		t.Errorf("bus load after dup commit = %v, want 1.0", got)
	}
}

func TestBusCostDedupsWithinCandidate(t *testing.T) {
	// The same value moved once to a cluster serves both consumers: two
	// transfers with identical (prod, dest) count once.
	b := dfg.NewBuilder("dd")
	x, y := b.Input("x"), b.Input("y")
	p := b.Add(x, y)
	c1 := b.Add(p, y)
	c2 := b.Sub(p, y)
	b.Output(c1)
	b.Output(c2)
	g := b.Graph()
	dp := machine.MustParse("[2,1|2,1]", machine.Config{NumBuses: 1})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs := []Transfer{
		{Prod: p.Node(), Cons: c1.Node(), Dest: 1},
		{Prod: p.Node(), Cons: c2.Node(), Dest: 1},
	}
	if c := s.BusCost(trs); c != 0 {
		t.Errorf("deduped BusCost = %d, want 0", c)
	}
}

// busCostRef is BusCost's definition with freshly made maps, the form
// it had before its tentative loads moved into the set's scratch.
func busCostRef(s *Set, trs []Transfer) int {
	tentative := map[[2]int]float64{}
	seen := map[[2]int]bool{}
	for _, tr := range trs {
		key := [2]int{tr.Prod.ID(), tr.Dest}
		if s.committed[key] || seen[key] {
			continue
		}
		seen[key] = true
		lo, hi, w := s.transferFrame(tr)
		for h, l := range s.transferRoute(tr) {
			for tau := lo; tau <= hi; tau++ {
				at := min(tau+h*s.dp.MoveLat(), s.L-1)
				tentative[[2]int{l, at}] += w / float64(s.dp.LinkCapacity(l))
			}
		}
	}
	cost := 0
	for k, add := range tentative {
		if s.bus[k[0]][k[1]]+add > 1+eps {
			cost++
		}
	}
	return cost
}

func TestBusCostScratchMatchesReference(t *testing.T) {
	// Random candidate transfer sets, interleaved with commits, on the
	// shared bus and on a multi-hop ring: the scratch reused across
	// calls must never leak one call's load into the next.
	g := ladder(6, 4)
	nodes := g.Nodes()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, dp := range []*machine.Datapath{
		machine.MustParse("[1,1|1,1|1,1]", machine.Config{NumBuses: 1}),
		machine.MustParse("[1,1|1,1|1,1|1,1|1,1]", machine.Config{Topology: "ring", MoveLat: 2}),
	} {
		s, err := New(g, dp, 6)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 500; call++ {
			var trs []Transfer
			for range rng.IntN(5) {
				var prod, cons *dfg.Node
				for cons == nil {
					prod = nodes[rng.IntN(len(nodes))]
					if succs := prod.Succs(); len(succs) > 0 {
						cons = succs[rng.IntN(len(succs))]
					}
				}
				src := rng.IntN(dp.NumClusters())
				dst := (src + 1 + rng.IntN(dp.NumClusters()-1)) % dp.NumClusters()
				trs = append(trs, Transfer{Prod: prod, Cons: cons, Src: src, Dest: dst})
			}
			if got, want := s.BusCost(trs), busCostRef(s, trs); got != want {
				t.Fatalf("%s call %d: BusCost = %d, reference %d", dp, call, got, want)
			}
			if call%7 == 0 {
				s.CommitTransfers(trs)
			}
		}
	}
}

func TestTransferFrameMobility(t *testing.T) {
	// Stretch L_PR so the consumer has mobility 3; with lat(move)=1 the
	// transfer mobility is 2 and the weight 1/3.
	b := dfg.NewBuilder("tf")
	x, y := b.Input("x"), b.Input("y")
	p := b.Add(x, y)
	c := b.Add(p, y)
	b.Output(c)
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1})
	s, err := New(g, dp, 5)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, w := s.transferFrame(Transfer{Prod: p.Node(), Cons: c.Node(), Dest: 1})
	// prod asap 0, lat 1 -> lo 1; consumer mobility 3, minus lat(move) -> 2.
	if lo != 1 || hi != 3 || !almost(w, 1.0/3) {
		t.Errorf("transfer frame = [%d,%d] w=%v, want [1,3] w=1/3", lo, hi, w)
	}
}

func TestTransferFrameClamped(t *testing.T) {
	// Consumer with zero mobility and lat(move)=2: transfer mobility
	// clamps at 0 rather than going negative.
	b := dfg.NewBuilder("cl")
	x, y := b.Input("x"), b.Input("y")
	p := b.Add(x, y)
	c := b.Add(p, y)
	b.Output(c)
	g := b.Graph()
	dp := machine.MustParse("[1,1|1,1]", machine.Config{NumBuses: 1, MoveLat: 2})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, w := s.transferFrame(Transfer{Prod: p.Node(), Cons: c.Node(), Dest: 1})
	if lo != 1 || hi != 1 || !almost(w, 1.0) {
		t.Errorf("clamped transfer frame = [%d,%d] w=%v, want [1,1] w=1", lo, hi, w)
	}
}

func TestCommitOpAccumulates(t *testing.T) {
	g := ladder(3, 1)
	dp := machine.MustParse("[2,1|1,1]", machine.Config{})
	s, err := New(g, dp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := g.Nodes()
	s.CommitOp(ops[0], 0)
	s.CommitOp(ops[1], 0)
	if got := s.ClusterLoad(0, dfg.FUALU, 0); !almost(got, 1.0) {
		t.Errorf("cluster 0 load = %v, want 1.0 (2 ops / 2 ALUs)", got)
	}
	s.CommitOp(ops[2], 1)
	if got := s.ClusterLoad(1, dfg.FUALU, 0); !almost(got, 1.0) {
		t.Errorf("cluster 1 load = %v, want 1.0 (1 op / 1 ALU)", got)
	}
}

func TestTimesExposed(t *testing.T) {
	g := ladder(1, 3)
	dp := machine.MustParse("[1,1]", machine.Config{NumBuses: 1})
	s, err := New(g, dp, 7)
	if err != nil {
		t.Fatal(err)
	}
	tm := s.Times()
	if tm.L != 7 {
		t.Errorf("Times().L = %d, want 7", tm.L)
	}
	if tm.Mobility(g.Nodes()[0]) != 4 {
		t.Errorf("mobility = %d, want 4", tm.Mobility(g.Nodes()[0]))
	}
}
