package bind

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
	"vliwbind/internal/profile"
	"vliwbind/internal/store"
)

// Options tunes both phases of the binding algorithm. The zero value
// selects the paper's published settings.
type Options struct {
	// Alpha, Beta, Gamma weight the FU-serialization, bus-serialization
	// and data-transfer penalties of Equation 1. Zero values default to
	// the paper's α = β = 1.0, γ = 1.1.
	Alpha, Beta, Gamma float64
	// MaxStretch bounds the load-profile latency sweep of the driver
	// (Section 3.1.3): B-INIT runs with L_PR = L_CP … L_CP+MaxStretch.
	// Negative disables stretching; zero defaults to 4 + L_CP/4.
	MaxStretch int
	// NoReverse disables the reversed binding order of Section 3.1.4 in
	// the driver sweep.
	NoReverse bool
	// NoPairs disables pair perturbations in B-ITER, leaving only
	// single-operation re-bindings.
	NoPairs bool
	// Sideways is the number of consecutive equal-quality (plateau)
	// moves B-ITER may accept while escaping local minima — the "more
	// powerful variant" of the paper's footnote 4. Zero defaults to 4
	// (the tuned, high-optimization configuration the paper reports);
	// negative selects the simple strictly-improving variant.
	Sideways int
	// MaxIterations caps B-ITER improvement iterations as a safety
	// valve; zero means no cap beyond natural termination.
	MaxIterations int
	// Seeds is how many distinct phase-one candidates Bind hands to the
	// improvement phase (the driver keeps the best few, not just the
	// single best, since a low-move initial solution can have no
	// boundary operations left to perturb). Zero defaults to
	// defaultSeeds.
	Seeds int
	// Parallelism bounds the shared worker pool that evaluates
	// independent binding candidates: the (L_PR, direction) sweep of the
	// B-INIT driver and each B-ITER perturbation round. Zero defaults to
	// runtime.GOMAXPROCS(0); 1 evaluates in order on the calling
	// goroutine; negative values are rejected by Validate. Any setting
	// produces bit-identical results — candidates are reduced in
	// enumeration order under the same lexicographic tie-breaks, never
	// first-goroutine-wins — so the knob trades only wall-clock time.
	// At every setting a memoization cache serves a binding already
	// scored in the current or the previous B-ITER round (see Stats).
	Parallelism int
	// Stats, when non-nil, accumulates hit/miss/retry counters of the
	// schedule-evaluation cache across the run. The cache, and therefore
	// the counters, is active at every Parallelism. Safe to share across
	// concurrent runs.
	Stats *CacheStats
	// Hook, when non-nil, is called at the engine's named seams (the
	// Hook* constants) — the worker pool, the evaluator, and the memo
	// cache. It exists for deterministic chaos testing (see
	// internal/faultinject): a hook may sleep, cancel the run's context,
	// or panic, and the engine isolates the fault. Leave nil in
	// production; every call site guards against panics, but hooks run
	// on the evaluation hot path.
	Hook func(point string)
	// Observer, when non-nil, receives one obs.Event at each of the
	// engine's observation seams: every sweep configuration, B-INIT
	// choice, B-ITER round, candidate evaluation (with cache verdict),
	// pool batch, retry, and degraded exit. Observation is strictly
	// passive — a run with an Observer attached produces bit-identical
	// results to one without — and the observer must be safe for
	// concurrent use, since events fire from worker-pool goroutines.
	// Leave nil in production unless tracing is wanted; the disabled
	// path costs one branch per seam.
	Observer obs.Observer
	// Store, when non-nil, is the cross-request result store the facade
	// consults before searching and publishes into after. The bind
	// package itself never reads it — lookup, adoption, auditing and
	// eviction all live in package vliwbind, because a served hit must
	// carry a fresh internal/audit certificate and audit depends on this
	// package. The field exists here so one Options value carries the
	// whole request configuration; like Observer it never changes
	// results, only how fast they arrive.
	Store *store.Store
}

// defaultSeeds is how many phase-one candidates survive the driver sweep
// when Options.Seeds is zero. Shared with Options.Fingerprint so an
// explicit request for the default and the zero value address the same
// store entry.
const defaultSeeds = 6

// Validate rejects out-of-range option values with a descriptive error
// before any engine work starts, instead of letting them surface as
// undefined behavior deep in a sweep. The zero value is always valid.
func (o Options) Validate() error {
	for _, w := range []struct {
		name string
		v    float64
	}{{"Alpha", o.Alpha}, {"Beta", o.Beta}, {"Gamma", o.Gamma}} {
		if w.v < 0 || math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			return fmt.Errorf("bind: Options.%s is %v; want a finite non-negative weight (0 selects the paper's default)", w.name, w.v)
		}
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("bind: Options.Parallelism is %d; want >= 0 (0 selects GOMAXPROCS, 1 the sequential path)", o.Parallelism)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("bind: Options.MaxIterations is %d; want >= 0 (0 means no cap)", o.MaxIterations)
	}
	if o.Seeds < 0 {
		return fmt.Errorf("bind: Options.Seeds is %d; want >= 0 (0 selects the default)", o.Seeds)
	}
	if err := o.Store.Valid(); err != nil {
		return fmt.Errorf("bind: Options.Store is invalid: %w", err)
	}
	return nil
}

// Fingerprint returns a stable byte encoding of every option that can
// change a binding result — the request half of a cross-request store
// key. Cost-only knobs (Parallelism, Stats, Hook, Observer,
// Store) are deliberately absent: every setting
// of those is documented and tested to produce bit-identical results,
// so requests differing only there must share a key. Options are
// defaulted first, so the zero value and an explicitly spelled-out
// default configuration fingerprint identically. Invalid options return
// the validation error.
func (o Options) Fingerprint() ([]byte, error) {
	o, err := o.prepare()
	if err != nil {
		return nil, err
	}
	stretch := o.MaxStretch
	if stretch < 0 {
		stretch = -1 // every negative value means the same thing: no sweep
	}
	seeds := o.Seeds
	if seeds <= 0 {
		seeds = defaultSeeds // explicit default == zero value, same key
	}
	b := fmt.Appendf(nil, "bindopts/v1 a=%x b=%x g=%x st=%d rev=%t pairs=%t side=%d it=%d seeds=%d",
		math.Float64bits(o.Alpha), math.Float64bits(o.Beta), math.Float64bits(o.Gamma),
		stretch, o.NoReverse, o.NoPairs, o.Sideways, o.MaxIterations, seeds)
	return b, nil
}

// prepare validates and then defaults the options; every public entry
// point goes through it exactly once.
func (o Options) prepare() (Options, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o.withDefaults(), nil
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 1.0
	}
	if o.Beta == 0 {
		o.Beta = 1.0
	}
	if o.Gamma == 0 {
		o.Gamma = 1.1
	}
	switch {
	case o.Sideways == 0:
		o.Sideways = 4
	case o.Sideways < 0:
		o.Sideways = 0
	}
	switch {
	case o.Parallelism == 0:
		o.Parallelism = runtime.GOMAXPROCS(0)
	case o.Parallelism < 1:
		o.Parallelism = 1
	}
	return o
}

// orderNodes returns the binding order of Section 3.1.1: lexicographic by
// (alap, mobility, number of consumers), with node ID as deterministic
// tiebreak. In reverse mode (Section 3.1.4) the ordering is mirrored:
// nodes are ranked by reversed-graph ALAP levels — latest finishers first
// — and by their number of producers, so binding starts from the output
// side of the graph.
func orderNodes(g *dfg.Graph, times *dfg.Times, lat dfg.LatencyFn, reverse bool) []*dfg.Node {
	nodes := append([]*dfg.Node(nil), g.Nodes()...)
	if !reverse {
		sort.SliceStable(nodes, func(i, j int) bool {
			a, b := nodes[i], nodes[j]
			if la, lb := times.ALAP[a.ID()], times.ALAP[b.ID()]; la != lb {
				return la < lb
			}
			if ma, mb := times.Mobility(a), times.Mobility(b); ma != mb {
				return ma < mb
			}
			if ca, cb := a.NumConsumers(), b.NumConsumers(); ca != cb {
				return ca > cb
			}
			return a.ID() < b.ID()
		})
		return nodes
	}
	// Reversed-graph ALAP of v is L − (asap(v) + lat(v)); ascending in it
	// means descending in ASAP finish time. Mobility is direction
	// independent.
	sort.SliceStable(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		fa := times.ASAP[a.ID()] + lat(a.Op())
		fb := times.ASAP[b.ID()] + lat(b.Op())
		if fa != fb {
			return fa > fb
		}
		if ma, mb := times.Mobility(a), times.Mobility(b); ma != mb {
			return ma < mb
		}
		if pa, pb := len(a.Preds()), len(b.Preds()); pa != pb {
			return pa > pb
		}
		return a.ID() < b.ID()
	})
	return nodes
}

// trcost computes the data-transfer penalty of Section 3.1.2 for binding v
// to cluster c, together with the new bus transfers that binding implies
// (used for buscost and committed afterwards). bn holds the partial
// binding (-1 for unbound nodes).
//
// Forward direction: the direct component counts bound producers in other
// clusters (one transfer each, weighted by the route's hop count — one on
// every single-hop topology, so the paper's counting is unchanged there);
// the common-consumer component adds one for each consumer of v that
// already has a bound producer elsewhere — that transfer will exist no
// matter where the consumer lands. The reverse direction mirrors
// producers and consumers: v's result must reach each distinct cluster
// its bound consumers occupy, and the look-ahead counts operands shared
// with already-bound consumers. Look-ahead components involve an unbound
// endpoint, so no route is known and they count the one-hop minimum.
func trcost(v *dfg.Node, c int, dp *machine.Datapath, bn []int, reverse bool) (cost int, trs []profile.Transfer) {
	hops := func(src, dst int) int {
		if r := dp.Route(src, dst); r != nil {
			return len(r)
		}
		return 1
	}
	if !reverse {
		for _, u := range v.Preds() {
			if bu := bn[u.ID()]; bu >= 0 && bu != c {
				cost += hops(bu, c)
				trs = append(trs, profile.Transfer{Prod: u, Cons: v, Src: bu, Dest: c})
			}
		}
		// Common-consumer look-ahead: for each yet-unbound consumer of v
		// with another producer already bound elsewhere, at least one
		// transfer is inevitable (Figure 3).
		for _, u := range v.Succs() {
			if bn[u.ID()] >= 0 {
				continue
			}
			for _, z := range u.Preds() {
				if z == v {
					continue
				}
				if bz := bn[z.ID()]; bz >= 0 && bz != c {
					cost++
					break
				}
			}
		}
		return cost, trs
	}
	// Reverse: bound consumers pull v's result into their clusters; one
	// transfer per distinct foreign cluster.
	seen := make(map[int]*dfg.Node)
	for _, u := range v.Succs() {
		if bu := bn[u.ID()]; bu >= 0 && bu != c {
			if _, ok := seen[bu]; !ok {
				seen[bu] = u
				cost += hops(c, bu)
				trs = append(trs, profile.Transfer{Prod: v, Cons: u, Src: c, Dest: bu})
			}
		}
	}
	// Common-producer look-ahead: an unbound operand u of v that also
	// feeds an already-bound consumer elsewhere will need a transfer
	// regardless of where u lands.
	for _, u := range v.Preds() {
		if bn[u.ID()] >= 0 {
			continue
		}
		for _, z := range u.Succs() {
			if z == v {
				continue
			}
			if bz := bn[z.ID()]; bz >= 0 && bz != c {
				cost++
				break
			}
		}
	}
	return cost, trs
}

// InitialOnce runs one pass of the greedy B-INIT binder (Section 3.1) with
// a fixed load-profile latency lpr and direction. It returns the binding
// on the original graph. Most callers want Initial, which sweeps these
// parameters and evaluates each candidate.
func InitialOnce(g *dfg.Graph, dp *machine.Datapath, lpr int, reverse bool, opts Options) ([]int, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	return initialOnce(g, dp, lpr, reverse, opts)
}

// initialOnce is InitialOnce on already-prepared options — the form the
// driver sweep calls once per configuration, so validation is paid once
// per run instead of once per config.
func initialOnce(g *dfg.Graph, dp *machine.Datapath, lpr int, reverse bool, opts Options) ([]int, error) {
	prof, err := profile.New(g, dp, lpr)
	if err != nil {
		return nil, err
	}
	order := orderNodes(g, prof.Times(), dp.Latency, reverse)
	bn := make([]int, g.NumNodes())
	for i := range bn {
		bn[i] = -1
	}
	moveLat := float64(dp.MoveLat())
	moveDII := float64(dp.MoveDII())
	for _, v := range order {
		ts := dp.TargetSet(v.Op())
		if len(ts) == 0 {
			return nil, fmt.Errorf("bind: no cluster supports %s (%s)", v.Name(), v.Op())
		}
		bestC := -1
		var bestCost, bestTr float64
		var bestTrs []profile.Transfer
		var bestFU int
		var choices []obs.ClusterCost // explain breakdown, observer-only
		for _, c := range ts {
			tc, trs := trcost(v, c, dp, bn, reverse)
			fu := prof.FUCost(v, c)
			bus := prof.BusCost(trs)
			cost := float64(fu)*opts.Alpha*float64(dp.DII(v.Op())) +
				float64(bus)*opts.Beta*moveDII +
				float64(tc)*opts.Gamma*moveLat
			// Ties break toward fewer transfers, then lighter FU
			// serialization, then the lower-numbered cluster, keeping
			// the greedy pass deterministic.
			better := bestC < 0 || cost < bestCost ||
				(cost == bestCost && float64(tc) < bestTr) ||
				(cost == bestCost && float64(tc) == bestTr && fu < bestFU)
			if better {
				bestC, bestCost, bestTr, bestFU, bestTrs = c, cost, float64(tc), fu, trs
			}
			if opts.Observer != nil {
				choices = append(choices, obs.ClusterCost{
					Cluster: c, FUCost: fu, BusCost: bus, TrCost: tc, ICost: cost,
				})
			}
		}
		if opts.Observer != nil {
			for i := range choices {
				choices[i].Chosen = choices[i].Cluster == bestC
			}
			opts.Observer.Event(obs.Event{
				Type: obs.EvBInitChoice, Phase: "binit.greedy", Kernel: g.Name(),
				LPR: lpr, Reverse: reverse, Op: v.Name(), Choices: choices,
			})
		}
		bn[v.ID()] = bestC
		prof.CommitOp(v, bestC)
		prof.CommitTransfers(bestTrs)
	}
	return bn, nil
}

// Initial is the paper's "driver" around B-INIT (Sections 3.1.3–3.1.4):
// it varies the load-profile latency from L_CP upward and tries both
// binding directions, list-scheduling every candidate binding and keeping
// the best by (L, moves). The result is the phase-one solution handed to
// Improve.
func Initial(g *dfg.Graph, dp *machine.Datapath, opts Options) (*Result, error) {
	return InitialContext(context.Background(), g, dp, opts)
}

// InitialContext is Initial under a context. The driver sweep is the
// phase that mints the anytime floor, so it is all-or-nothing: a
// cancellation or deadline that lands before the sweep completes
// returns an error wrapping context.Cause — there is no certified
// candidate to degrade to yet. Once InitialContext returns a Result,
// every later phase can only improve on it.
func InitialContext(ctx context.Context, g *dfg.Graph, dp *machine.Datapath, opts Options) (*Result, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	en, err := newEngine(g, dp, opts)
	if err != nil {
		return nil, err
	}
	sols, err := initialSolutions(ctx, en, opts)
	if err != nil {
		return nil, err
	}
	return en.materialize(sols[0])
}

// initialSolutions is the driver sweep on an existing evaluation
// engine (opts already defaulted). Every (L_PR stretch, direction)
// configuration is greedily bound and virtually scheduled
// independently, so both steps fan out over the worker pool; the
// distinct-binding dedup and the final (L, moves) ranking run over
// index-ordered slices, which keeps the outcome bit-identical to the
// sequential sweep. No bound graph is built here — candidates stay
// (binding, record) pairs until a caller keeps one.
//
// Cancellation is observed at driver-iteration granularity (each sweep
// configuration is one pool task) and surfaces as an error wrapping the
// context cause: the sweep completes whole or not at all, because its
// full (L, moves) ranking is what certifies the anytime floor.
func initialSolutions(ctx context.Context, en *engine, opts Options) ([]solution, error) {
	g, dp := en.p.Graph(), en.p.Datapath()
	keep := opts.Seeds
	if keep <= 0 {
		keep = defaultSeeds
	}
	lcp := en.p.CriticalPath()
	stretch := opts.MaxStretch
	switch {
	case stretch < 0:
		stretch = 0
	case stretch == 0:
		stretch = 4 + lcp/4
	}
	dirs := []bool{false}
	if !opts.NoReverse {
		dirs = append(dirs, true)
	}
	type config struct {
		lpr     int
		reverse bool
	}
	var configs []config
	for s := 0; s <= stretch; s++ {
		for _, rev := range dirs {
			configs = append(configs, config{lcp + s, rev})
		}
	}
	en.setPhase("binit.sweep")
	bns := make([][]int, len(configs))
	errs := en.runBatch(ctx, len(configs), func(_, i int) error {
		en.fire(HookSweepConfig)
		var err error
		bns[i], err = initialOnce(g, dp, configs[i].lpr, configs[i].reverse, opts)
		if err == nil {
			// Rank is the 1-based sweep order: with the dedup below
			// keeping the first occurrence of each binding, the lowest
			// rank carrying a key identifies the config that minted it.
			en.emit(obs.Event{Type: obs.EvSweepConfig, Rank: i + 1,
				LPR: configs[i].lpr, Reverse: configs[i].reverse, Key: keyHex(bns[i])})
		}
		return err
	})
	if err := sweepErr(ctx, errs); err != nil {
		return nil, err
	}
	// Dedup in sweep order before scheduling, exactly as the sequential
	// sweep did, so only distinct bindings pay for an evaluation.
	var uniq [][]int
	var keys []string
	seen := make(map[string]bool)
	for i := range configs {
		if key := bindingKey(bns[i]); !seen[key] {
			seen[key] = true
			uniq = append(uniq, bns[i])
			keys = append(keys, key)
		}
	}
	en.setPhase("binit.eval")
	recs := make([]*evalRec, len(uniq))
	evalErrs := en.runBatch(ctx, len(uniq), func(worker, i int) error {
		var err error
		recs[i], err = en.evaluate(ctx, worker, uniq[i], keys[i])
		return err
	})
	if err := sweepErr(ctx, evalErrs); err != nil {
		return nil, err
	}
	sols := make([]solution, len(uniq))
	for i := range uniq {
		sols[i] = solution{bn: uniq[i], rec: recs[i]}
	}
	sort.SliceStable(sols, func(i, j int) bool {
		if sols[i].rec.l != sols[j].rec.l {
			return sols[i].rec.l < sols[j].rec.l
		}
		return sols[i].rec.m < sols[j].rec.m
	})
	if len(sols) > keep {
		sols = sols[:keep]
	}
	for i, s := range sols {
		en.emit(obs.Event{Type: obs.EvSweepSeed, Rank: i + 1,
			Key: keyHex(s.bn), L: s.rec.l, M: s.rec.m, QU: s.rec.qu})
	}
	return sols, nil
}

// sweepErr reduces a sweep batch's error slots to the error the driver
// reports: a cancellation becomes a descriptive error wrapping the
// context cause (there is no complete candidate to return yet);
// anything else — including a PanicError whose retries were exhausted —
// surfaces as-is, first slot wins.
func sweepErr(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err == nil {
			continue
		}
		if canceled(ctx, err) {
			return fmt.Errorf("bind: cancelled during the B-INIT sweep before the first complete candidate: %w", context.Cause(ctx))
		}
		return err
	}
	return nil
}
