package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vliwbind/internal/bind"
	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/modulo"
	"vliwbind/internal/obs"
	"vliwbind/internal/regpressure"
)

// BindFunc binds one kernel to one datapath. The facade's
// InitialBindContext and BindContext match this signature exactly, so
// the engine composes with the store/audit plumbing that lives above
// the internal packages without importing it (which would cycle).
type BindFunc func(ctx context.Context, g *dfg.Graph, dp *machine.Datapath, opts bind.Options) (*bind.Result, error)

// Config describes one exploration.
type Config struct {
	// Graph is the kernel every design point binds. Bindings never
	// mutate it, so one graph serves all points, even concurrently.
	Graph *dfg.Graph
	// Kernel names the graph in emitted events.
	Kernel string
	// ALUs, MULs and MaxClusters bound the enumerated space: every way
	// of splitting ALUs+MULs over 1..MaxClusters non-empty clusters.
	ALUs, MULs, MaxClusters int
	// Machine configures every candidate datapath (buses, topology,
	// link capacity, resource timing).
	Machine machine.Config
	// Bind evaluates one design point.
	Bind BindFunc
	// Options is the template for each point's bind.Options. The engine
	// forces Parallelism to 1 — parallelism lives at the point level —
	// and replaces Stats with a private per-point counter so store hits
	// attribute to their point (the totals are summed into the Result).
	Options bind.Options
	// Par is the point-level worker-pool size: 0 = GOMAXPROCS,
	// 1 = sequential. Results are bit-identical at any setting.
	Par int
	// Prune enables dominance pruning: candidates whose optimistic
	// objective vector is dominated by an already-bound anchor point's
	// achieved vector are reported pruned instead of bound.
	Prune bool
	// Observer receives explore.point / explore.prune events (plus
	// whatever the binding engine emits through Options.Observer). May
	// be nil.
	Observer obs.Observer
}

// Point is one design point of the exploration, in JSON form for -json
// consumers. For a pruned point the Vector holds the optimistic bound
// that was dominated, not an achieved objective.
type Point struct {
	// Spec is the canonical datapath spec, e.g. "[2,1|2,1]".
	Spec string `json:"spec"`
	// Vector is the achieved objective vector (bound points) or the
	// optimistic lower-bound vector (pruned points).
	Vector
	// Bound is the optimistic latency lower bound computed before
	// binding (LowerBoundClustered).
	Bound int `json:"bound"`
	// Degraded marks a budget-truncated search: the vector is an upper
	// bound on the point's true objective, so the point is excluded
	// from dominance.
	Degraded bool `json:"degraded,omitempty"`
	// Pruned marks a point eliminated without a search; PrunedBy names
	// the anchor whose achieved vector dominated its optimistic one.
	Pruned   bool   `json:"pruned,omitempty"`
	PrunedBy string `json:"pruned_by,omitempty"`
	// StoreHit reports that the point's result was adopted from the
	// cross-request store rather than searched.
	StoreHit bool `json:"store_hit,omitempty"`
	// WallNs is the point's wall-clock binding time.
	WallNs int64 `json:"wall_ns,omitempty"`
	// Pareto marks membership in the reported frontier.
	Pareto bool `json:"pareto,omitempty"`

	// done marks a point that was actually bound (not pruned, not
	// skipped by budget expiry); err holds its fatal error if any.
	done bool
	err  error
}

// Result is one exploration's full outcome.
type Result struct {
	// Kernel, ALUs, MULs, MaxClusters and Algo echo the exploration's
	// inputs so a JSON consumer needs no side channel.
	Kernel      string `json:"kernel"`
	ALUs        int    `json:"alus"`
	MULs        int    `json:"muls"`
	MaxClusters int    `json:"maxclusters"`
	// Points lists every design point in canonical enumeration order
	// (ascending cluster count, lexicographic spec): bound points with
	// their achieved vectors, pruned points with their bounds. Points
	// skipped by budget expiry are absent.
	Points []Point `json:"points"`
	// Expired reports that the shared budget ran out before the space
	// was covered; Cause names the interruption.
	Expired bool   `json:"expired,omitempty"`
	Cause   string `json:"cause,omitempty"`
	// Degraded and Pruned count points in those states.
	Degraded int `json:"degraded"`
	Pruned   int `json:"pruned"`
	// Store counters aggregate every point's result-store traffic.
	StoreHits   int64 `json:"store_hits,omitempty"`
	StoreMisses int64 `json:"store_misses,omitempty"`
	StoreEvicts int64 `json:"store_evicts,omitempty"`
}

// Frontier returns the Pareto-marked points in enumeration order.
func (r *Result) Frontier() []Point {
	var out []Point
	for _, p := range r.Points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}

// Explore runs one exploration. The output is deterministic — a
// function of the Config alone, independent of Par and of goroutine
// scheduling — unless the context expires mid-run, in which case the
// covered prefix of the space depends on timing (exactly as it does for
// the sequential sweep).
//
// Pruning keeps the frontier and every reported vector bit-identical
// to the unpruned sweep by construction:
//
//  1. The candidate list is split statically into anchors and
//     prunables. A candidate is prunable when some other candidate is
//     at least as good on the static axes (ports, clusters) — with
//     enumeration order breaking ties — because only such a candidate
//     could ever dominate it. Anchors are the static minima; nothing
//     can dominate them, so binding them never wastes the pool.
//  2. All anchors are bound first (pool fan-out, then a barrier).
//  3. Each prunable candidate is tested, in enumeration order, against
//     the anchors' achieved vectors in enumeration order: the first
//     non-degraded anchor whose achieved vector dominates the
//     candidate's optimistic vector prunes it. Anchor results are
//     deterministic, so the prune set is too.
//  4. The surviving candidates are bound (pool fan-out).
//
// Soundness: achieved >= optimistic componentwise (bounds.go), so an
// anchor dominating the optimistic vector dominates every vector the
// candidate could achieve — the candidate was never on the frontier,
// and removing a dominated point changes neither the frontier nor any
// other point's result.
func Explore(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Bind == nil {
		return nil, fmt.Errorf("explore: config needs a graph and a bind function")
	}
	if cfg.ALUs < 1 || cfg.MULs < 0 || cfg.MaxClusters < 1 {
		return nil, fmt.Errorf("explore: invalid budget: %d ALUs, %d MULs, %d clusters", cfg.ALUs, cfg.MULs, cfg.MaxClusters)
	}
	workers := cfg.Par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Enumerate and statically characterize the space.
	type candidate struct {
		point Point
		dp    *machine.Datapath
		opt   Vector // componentwise lower bound on any achievable vector
		prune bool   // has a potential static dominator; may be pruned
	}
	var cands []*candidate
	for nc := 1; nc <= cfg.MaxClusters; nc++ {
		for _, spec := range Clusterings(cfg.ALUs, cfg.MULs, nc) {
			dp, err := machine.Parse(spec, cfg.Machine)
			if err != nil {
				return nil, err
			}
			if dp.CanRun(cfg.Graph) != nil {
				continue // e.g. all multipliers missing for a mul-bearing kernel
			}
			ports, err := Ports(spec)
			if err != nil {
				return nil, err
			}
			opt := optimistic(cfg.Graph, dp, ports)
			cands = append(cands, &candidate{
				point: Point{Spec: spec, Vector: Vector{Ports: ports, Clusters: nc}, Bound: opt.L},
				dp:    dp,
				opt:   opt,
			})
		}
	}
	// Static anchor partition: candidate i can only be dominated by a
	// candidate j with ports_j <= ports_i and clusters_j <= clusters_i
	// (dominance needs every axis <= , and these two axes are static).
	// Ties fall to the earlier candidate so the relation stays acyclic.
	if cfg.Prune {
		for i, c := range cands {
			for j, q := range cands {
				if i == j {
					continue
				}
				if q.point.Ports > c.point.Ports || q.point.Clusters > c.point.Clusters {
					continue
				}
				if q.point.Ports < c.point.Ports || q.point.Clusters < c.point.Clusters || j < i {
					c.prune = true
					break
				}
			}
		}
	}

	res := &Result{Kernel: cfg.Kernel, ALUs: cfg.ALUs, MULs: cfg.MULs, MaxClusters: cfg.MaxClusters}
	var storeHits, storeMisses, storeEvicts atomic.Int64
	bindPoint := func(c *candidate) {
		if ctx.Err() != nil {
			return // skipped; the points already bound still make a table
		}
		pstats := &bind.CacheStats{}
		opts := cfg.Options
		opts.Parallelism = 1 // parallelism lives at the point level
		opts.Stats = pstats
		t0 := time.Now()
		r, err := cfg.Bind(ctx, cfg.Graph, c.dp, opts)
		c.point.WallNs = time.Since(t0).Nanoseconds()
		storeHits.Add(pstats.StoreHits())
		storeMisses.Add(pstats.StoreMisses())
		storeEvicts.Add(pstats.StoreEvicts())
		if err != nil {
			if ctx.Err() == nil {
				c.point.err = err
			}
			return
		}
		c.point.done = true
		c.point.L = r.L()
		c.point.Moves = r.Moves()
		c.point.Degraded = r.Degraded
		c.point.StoreHit = pstats.StoreHits() > 0
		if r.Schedule != nil {
			c.point.Pressure = regpressure.Analyze(r.Schedule).Peak
		}
		if !c.dp.MultiHop() {
			if ps, err := modulo.PipelineContext(ctx, modulo.BodyLoop(cfg.Graph), c.dp, modulo.Options{}); err == nil {
				c.point.II = ps.II
			}
		}
		if cfg.Observer != nil {
			cfg.Observer.Event(obs.Event{Type: obs.EvExplorePoint, Kernel: cfg.Kernel,
				Name: c.point.Spec, L: c.point.L, M: c.point.Moves, DurNs: c.point.WallNs})
		}
	}
	// bindAll fans one phase's points out over the engine's worker pool.
	// bindPoint records its own errors, so the pool's error slots hold
	// only a panicking point's *bind.PanicError (kept: a panic is never a
	// cancellation) or the cause of a context that ended (skipped points).
	bindAll := func(cs []*candidate) {
		errs := bind.RunTasks(ctx, workers, len(cs), func(i int) error { bindPoint(cs[i]); return nil })
		for i, err := range errs {
			var pe *bind.PanicError
			if errors.As(err, &pe) {
				cs[i].point.err = err
			}
		}
	}

	// Phase one: bind the anchors.
	var anchors, prunables []*candidate
	for _, c := range cands {
		if c.prune {
			prunables = append(prunables, c)
		} else {
			anchors = append(anchors, c)
		}
	}
	bindAll(anchors)

	// Prune decisions, in enumeration order, from anchor results only.
	var survivors []*candidate
	for _, c := range prunables {
		pruned := false
		for _, q := range anchors {
			if !q.point.done || q.point.Degraded {
				continue
			}
			if Dominates(q.point.Vector, c.opt) {
				c.point.Pruned = true
				c.point.PrunedBy = q.point.Spec
				c.point.Vector = c.opt
				pruned = true
				if cfg.Observer != nil {
					cfg.Observer.Event(obs.Event{Type: obs.EvExplorePrune, Kernel: cfg.Kernel,
						Name: c.point.Spec, L: c.opt.L, By: q.point.Spec})
				}
				break
			}
		}
		if !pruned {
			survivors = append(survivors, c)
		}
	}

	// Phase two: bind the survivors.
	bindAll(survivors)

	// Assemble in enumeration order; the first real error aborts.
	for _, c := range cands {
		if c.point.err != nil {
			return nil, c.point.err
		}
		if !c.point.done && !c.point.Pruned {
			res.Expired = true
			continue
		}
		if c.point.Degraded {
			res.Degraded++
		}
		if c.point.Pruned {
			res.Pruned++
		}
		res.Points = append(res.Points, c.point)
	}
	if ctx.Err() != nil {
		res.Expired = true
	}
	if res.Expired {
		if cause := context.Cause(ctx); cause != nil {
			res.Cause = cause.Error()
		}
	}
	res.StoreHits = storeHits.Load()
	res.StoreMisses = storeMisses.Load()
	res.StoreEvicts = storeEvicts.Load()
	MarkPareto(res.Points)
	return res, nil
}
