package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/leakcheck"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
)

func chainGraph(n int) *dfg.Graph {
	b := dfg.NewBuilder("chain")
	x, y := b.Input("x"), b.Input("y")
	v := b.Add(x, y)
	for i := 1; i < n; i++ {
		v = b.Add(v, y)
	}
	b.Output(v)
	return b.Graph()
}

func kernelGraph(t *testing.T, name string) *dfg.Graph {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k.Build()
}

// stripWall zeroes the only nondeterministic field so full results can
// be compared with DeepEqual.
func stripWall(r *Result) *Result {
	for i := range r.Points {
		r.Points[i].WallNs = 0
	}
	return r
}

func explore(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPruneFiresAndIsSound drives the crafted space where pruning
// provably fires — a serial chain leaves every 4-ALU clustering at the
// same (L, moves, pressure, II), so the static port/cluster axes decide
// — and checks the prune is sound: the pruned spec is off the frontier
// of the unpruned sweep, and every surviving point's vector matches the
// unpruned sweep's bit for bit.
func TestPruneFiresAndIsSound(t *testing.T) {
	cfg := Config{
		Graph: chainGraph(11), Kernel: "chain11",
		ALUs: 4, MULs: 0, MaxClusters: 2,
		Bind: bind.InitialContext, Par: 1,
	}
	cfg.Prune = true
	pruned := explore(t, cfg)
	cfg.Prune = false
	full := explore(t, cfg)

	if pruned.Pruned != 1 {
		t.Fatalf("pruned %d point(s), want exactly 1:\n%+v", pruned.Pruned, pruned.Points)
	}
	var victim Point
	for _, p := range pruned.Points {
		if p.Pruned {
			victim = p
		}
	}
	if victim.Spec != "[3,0|1,0]" || victim.PrunedBy != "[2,0|2,0]" {
		t.Errorf("pruned %s by %s, want [3,0|1,0] by [2,0|2,0]", victim.Spec, victim.PrunedBy)
	}
	if victim.Pareto {
		t.Error("pruned point marked Pareto")
	}
	// Soundness: the victim is genuinely dominated in the full sweep.
	fullBySpec := make(map[string]Point)
	for _, p := range full.Points {
		fullBySpec[p.Spec] = p
	}
	fv, ok := fullBySpec[victim.Spec]
	if !ok {
		t.Fatalf("victim %s missing from the unpruned sweep", victim.Spec)
	}
	if fv.Pareto {
		t.Errorf("pruned point %s is Pareto-optimal in the unpruned sweep — the prune was unsound", victim.Spec)
	}
	// The survivors' achieved vectors and frontier match the full sweep.
	for _, p := range pruned.Points {
		if p.Pruned {
			continue
		}
		q := fullBySpec[p.Spec]
		if p.Vector != q.Vector || p.Pareto != q.Pareto {
			t.Errorf("point %s diverges under pruning: %+v pareto=%v vs %+v pareto=%v",
				p.Spec, p.Vector, p.Pareto, q.Vector, q.Pareto)
		}
	}
	if got, want := frontierSpecs(pruned), frontierSpecs(full); !reflect.DeepEqual(got, want) {
		t.Errorf("frontier diverges under pruning: %v vs %v", got, want)
	}
}

func frontierSpecs(r *Result) []string {
	var out []string
	for _, p := range r.Frontier() {
		out = append(out, p.Spec)
	}
	return out
}

// TestFrontierMatchesBruteForce is the property test: the reported
// frontier equals brute-force n-dimensional dominance recomputed over
// the enumerated space, for real kernels and both interconnects.
func TestFrontierMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		mc     machine.Config
	}{
		{"ARF", machine.Config{NumBuses: 2}},
		{"EWF", machine.Config{NumBuses: 2, Topology: "ring"}},
	} {
		res := explore(t, Config{
			Graph: kernelGraph(t, tc.kernel), Kernel: tc.kernel,
			ALUs: 3, MULs: 2, MaxClusters: 3, Machine: tc.mc,
			Bind: bind.InitialContext, Par: 1, Prune: true,
		})
		for i, p := range res.Points {
			if p.Pruned || p.Degraded {
				if p.Pareto {
					t.Errorf("%s: %s is pruned/degraded yet Pareto", tc.kernel, p.Spec)
				}
				continue
			}
			dominated := false
			for j, q := range res.Points {
				if i == j || q.Pruned || q.Degraded {
					continue
				}
				if Dominates(q.Vector, p.Vector) {
					dominated = true
					break
				}
			}
			if p.Pareto == dominated {
				t.Errorf("%s: point %s Pareto=%v but brute-force dominated=%v", tc.kernel, p.Spec, p.Pareto, dominated)
			}
		}
	}
}

// TestDeterministicAcrossPar pins the headline determinism claim: the
// full Result — every point, every vector, the frontier, the counters —
// is bit-identical at pool sizes 1 and 4, pruned or not.
func TestDeterministicAcrossPar(t *testing.T) {
	for _, prune := range []bool{false, true} {
		base := Config{
			Graph: kernelGraph(t, "ARF"), Kernel: "ARF",
			ALUs: 3, MULs: 2, MaxClusters: 3, Machine: machine.Config{NumBuses: 2},
			Bind: bind.InitialContext, Prune: prune,
		}
		base.Par = 1
		seq := stripWall(explore(t, base))
		base.Par = 4
		par := stripWall(explore(t, base))
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("prune=%v: results diverge between -par 1 and -par 4:\n%+v\nvs\n%+v", prune, seq, par)
		}
	}
}

// TestIterMatchesAcrossPar repeats the determinism check with the full
// B-ITER binder, whose own search is the expensive, seeded one.
func TestIterMatchesAcrossPar(t *testing.T) {
	base := Config{
		Graph: kernelGraph(t, "ARF"), Kernel: "ARF",
		ALUs: 2, MULs: 1, MaxClusters: 2, Machine: machine.Config{NumBuses: 2},
		Bind: bind.BindContext, Prune: true,
	}
	base.Par = 1
	seq := stripWall(explore(t, base))
	base.Par = 4
	par := stripWall(explore(t, base))
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("B-ITER results diverge between -par 1 and -par 4:\n%+v\nvs\n%+v", seq, par)
	}
}

// TestOptimisticIsLowerBound: every achieved vector is componentwise no
// better than the optimistic one the pruning relies on.
func TestOptimisticIsLowerBound(t *testing.T) {
	g := kernelGraph(t, "ARF")
	for nc := 1; nc <= 3; nc++ {
		for _, spec := range Clusterings(3, 2, nc) {
			dp, err := machine.Parse(spec, machine.Config{NumBuses: 2})
			if err != nil {
				t.Fatal(err)
			}
			if dp.CanRun(g) != nil {
				continue
			}
			ports, err := Ports(spec)
			if err != nil {
				t.Fatal(err)
			}
			opt := optimistic(g, dp, ports)
			res, err := bind.Bind(g, dp, bind.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.L() < opt.L || res.Moves() < opt.Moves {
				t.Errorf("%s: achieved (L=%d, M=%d) beats optimistic (L=%d, M=%d)",
					spec, res.L(), res.Moves(), opt.L, opt.Moves)
			}
		}
	}
}

func TestCancelledContextExpires(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Explore(ctx, Config{
		Graph: chainGraph(5), ALUs: 2, MULs: 0, MaxClusters: 2,
		Bind: bind.InitialContext, Par: 1,
	})
	if err != nil {
		t.Fatalf("cancelled exploration should return its (empty) result, got error: %v", err)
	}
	if !res.Expired {
		t.Error("Expired not set on a cancelled exploration")
	}
	if len(res.Points) != 0 {
		t.Errorf("%d point(s) reported after pre-cancelled context, want 0", len(res.Points))
	}
}

func TestBindErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Explore(context.Background(), Config{
		Graph: chainGraph(5), ALUs: 2, MULs: 0, MaxClusters: 2, Par: 4,
		Bind: func(ctx context.Context, g *dfg.Graph, dp *machine.Datapath, opts bind.Options) (*bind.Result, error) {
			return nil, boom
		},
	})
	if !errors.Is(err, boom) {
		t.Errorf("bind error not propagated: %v", err)
	}
}

// TestPanickingPointReturnsPanicError runs the design points on the
// engine's guarded pool: a BindFunc that panics on one point must come
// back from Explore as that point's *bind.PanicError, with the stack
// captured, at any Par — never as a panic on the caller's goroutine,
// and never leaking a pool worker.
func TestPanickingPointReturnsPanicError(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			leakcheck.Check(t)
			_, err := Explore(context.Background(), Config{
				Graph: chainGraph(5), ALUs: 4, MULs: 0, MaxClusters: 2, Par: par,
				Bind: func(ctx context.Context, g *dfg.Graph, dp *machine.Datapath, opts bind.Options) (*bind.Result, error) {
					if dp.NumClusters() == 2 && dp.NumFU(0, dfg.FUALU) == 3 {
						panic("point fault")
					}
					return bind.InitialContext(ctx, g, dp, opts)
				},
			})
			var pe *bind.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Explore error %v is not a *bind.PanicError", err)
			}
			if pe.Value != "point fault" || len(pe.Stack) == 0 {
				t.Errorf("PanicError{Value: %v, %d stack bytes}, want the point's panic value and a stack", pe.Value, len(pe.Stack))
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Explore(context.Background(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Explore(context.Background(), Config{Graph: chainGraph(2), Bind: bind.InitialContext, ALUs: 0, MaxClusters: 1}); err == nil {
		t.Error("zero-ALU budget accepted")
	}
}

// TestDegradedPointFlagged routes one spec through a wrapper that
// degrades its result: the point must carry the flag, be counted, and
// sit outside the frontier even with a falsely attractive vector.
func TestDegradedPointFlagged(t *testing.T) {
	inner := BindFunc(bind.InitialContext)
	res := explore(t, Config{
		Graph: chainGraph(11), Kernel: "chain11",
		ALUs: 4, MULs: 0, MaxClusters: 2, Par: 1,
		Bind: func(ctx context.Context, g *dfg.Graph, dp *machine.Datapath, opts bind.Options) (*bind.Result, error) {
			r, err := inner(ctx, g, dp, opts)
			if err == nil && dp.NumClusters() == 1 {
				r.Degraded = true
			}
			return r, err
		},
	})
	if res.Degraded != 1 {
		t.Fatalf("degraded count = %d, want 1", res.Degraded)
	}
	for _, p := range res.Points {
		if p.Spec == "[4,0]" {
			if !p.Degraded {
				t.Error("degraded point not flagged")
			}
			if p.Pareto {
				t.Error("degraded point marked Pareto")
			}
		}
	}
}

// TestObserverEvents reconciles the engine's own event stream against
// its result: one explore.point per bound point carrying that point's
// (L, M), and one explore.prune per pruned point naming the dominating
// anchor.
func TestObserverEvents(t *testing.T) {
	var events []obs.Event
	res := explore(t, Config{
		Graph: chainGraph(11), Kernel: "chain11",
		ALUs: 4, MULs: 0, MaxClusters: 2, Par: 1, Prune: true,
		Bind:     bind.InitialContext,
		Observer: obs.Func(func(e obs.Event) { events = append(events, e) }),
	})
	points := make(map[string]Point)
	bound, pruned := 0, 0
	for _, p := range res.Points {
		points[p.Spec] = p
		if p.Pruned {
			pruned++
		} else {
			bound++
		}
	}
	gotPoint, gotPrune := 0, 0
	for _, e := range events {
		switch e.Type {
		case obs.EvExplorePoint:
			gotPoint++
			p, ok := points[e.Name]
			if !ok || p.Pruned {
				t.Errorf("explore.point for %q does not match a bound point", e.Name)
				continue
			}
			if e.L != p.L || e.M != p.Moves || e.Kernel != "chain11" {
				t.Errorf("explore.point %q carries (L=%d, M=%d), point has (%d, %d)", e.Name, e.L, e.M, p.L, p.Moves)
			}
		case obs.EvExplorePrune:
			gotPrune++
			p, ok := points[e.Name]
			if !ok || !p.Pruned {
				t.Errorf("explore.prune for %q does not match a pruned point", e.Name)
				continue
			}
			if e.By != p.PrunedBy || e.L != p.Bound {
				t.Errorf("explore.prune %q: by=%q L=%d, point has by=%q bound=%d", e.Name, e.By, e.L, p.PrunedBy, p.Bound)
			}
		}
	}
	if gotPoint != bound {
		t.Errorf("%d explore.point events for %d bound points", gotPoint, bound)
	}
	if gotPrune != pruned || pruned == 0 {
		t.Errorf("%d explore.prune events for %d pruned points (want at least one prune)", gotPrune, pruned)
	}
}
