package bind

import (
	"context"
	"fmt"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
	"vliwbind/internal/sched"
)

// Quality is a lexicographic binding-quality vector (Section 3.2): smaller
// is better, element by element. QualityU prepends the schedule latency to
// the completion profile (L, U_0, U_1, …); QualityM is (L, N_MV).
type Quality []int

// Less compares two quality vectors lexicographically; a missing element
// compares as zero, so a strictly shorter prefix ties with zeros.
func (q Quality) Less(o Quality) bool {
	n := len(q)
	if len(o) > n {
		n = len(o)
	}
	at := func(v Quality, i int) int {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		a, b := at(q, i), at(o, i)
		if a != b {
			return a < b
		}
	}
	return false
}

// Equal reports element-wise equality under the same zero-extension rule.
func (q Quality) Equal(o Quality) bool { return !q.Less(o) && !o.Less(q) }

// QualityU builds the paper's Q_U vector from a schedule: latency followed
// by the number of regular operations completing at L, L−1, … (Figure 6).
// Minimizing it first shortens the schedule, then thins out the last
// cycles, which is what gives later perturbations room to shorten L.
func QualityU(s *sched.Schedule) Quality {
	u := s.CompletionProfile(0)
	q := make(Quality, 0, len(u)+1)
	q = append(q, s.L)
	return append(q, u...)
}

// QualityM builds the paper's Q_M vector: (L, number of moves). It is used
// by the second improvement pass to trim data transfers at equal latency.
func QualityM(s *sched.Schedule) Quality {
	return Quality{s.L, s.NumMoves()}
}

// qualU and qualM are the evaluation-record forms of QualityU/QualityM —
// what the improvement loop actually consumes, straight from the virtual
// evaluator with no Schedule in sight.
func qualU(rec *evalRec) Quality { return rec.qu }
func qualM(rec *evalRec) Quality { return Quality{rec.l, rec.m} }

// boundaryOps lists the operations with at least one producer or consumer
// bound to a different cluster — the perturbation sites of Section 3.2.
func boundaryOps(g *dfg.Graph, bn []int) []*dfg.Node {
	var out []*dfg.Node
	for _, v := range g.Nodes() {
		c := bn[v.ID()]
		found := false
		for _, u := range v.Preds() {
			if bn[u.ID()] != c {
				found = true
				break
			}
		}
		if !found {
			for _, u := range v.Succs() {
				if bn[u.ID()] != c {
					found = true
					break
				}
			}
		}
		if found {
			out = append(out, v)
		}
	}
	return out
}

// neighborClusters returns the clusters, other than v's own, where v's
// operands or results currently reside, filtered to v's target set.
func neighborClusters(dp *machine.Datapath, v *dfg.Node, bn []int) []int {
	c := bn[v.ID()]
	seen := map[int]bool{c: true}
	var out []int
	consider := func(u *dfg.Node) {
		d := bn[u.ID()]
		if !seen[d] && dp.Supports(d, v.Op()) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, u := range v.Preds() {
		consider(u)
	}
	for _, u := range v.Succs() {
		consider(u)
	}
	return out
}

// candidate is one perturbed binding awaiting evaluation.
type candidate struct {
	ids      []int // perturbed node IDs
	clusters []int // their new clusters
}

// perturbations enumerates the boundary perturbations of the current
// binding: each boundary operation re-bound to each cluster holding one of
// its operands/results, and (unless disabled) pairs of adjacent boundary
// operations re-bound together. Pairs are restricted to operations linked
// by an edge or a common consumer, which is where single moves get stuck:
// moving either op alone adds a transfer, moving both together does not.
// A pair reachable along several links is emitted once, at its first
// occurrence, so no two candidates yield the same binding and the
// reduction's first-of-equals pick is unchanged.
func perturbations(g *dfg.Graph, dp *machine.Datapath, bn []int, opts Options) []candidate {
	bops := boundaryOps(g, bn)
	var cands []candidate
	if len(bops) == 0 {
		// A move-free binding has no boundaries to perturb (possible when
		// every connected component sits wholly inside one cluster). Fall
		// back to plain single-op re-bindings so phase two can still
		// trade a few transfers for parallelism.
		for _, v := range g.Nodes() {
			for _, d := range dp.TargetSet(v.Op()) {
				if d != bn[v.ID()] {
					cands = append(cands, candidate{ids: []int{v.ID()}, clusters: []int{d}})
				}
			}
		}
		return cands
	}
	neigh := make(map[int][]int, len(bops))
	for _, v := range bops {
		nc := neighborClusters(dp, v, bn)
		neigh[v.ID()] = nc
		for _, d := range nc {
			cands = append(cands, candidate{ids: []int{v.ID()}, clusters: []int{d}})
		}
	}
	if opts.NoPairs {
		return cands
	}
	emitted := make(map[[2]int]bool)
	addPair := func(v, w *dfg.Node) {
		if v.ID() > w.ID() {
			v, w = w, v
		}
		pair := [2]int{v.ID(), w.ID()}
		if v == w || len(neigh[v.ID()]) == 0 || len(neigh[w.ID()]) == 0 || emitted[pair] {
			return
		}
		emitted[pair] = true
		for _, dv := range neigh[v.ID()] {
			for _, dw := range neigh[w.ID()] {
				cands = append(cands, candidate{ids: []int{v.ID(), w.ID()}, clusters: []int{dv, dw}})
			}
		}
	}
	for _, v := range bops {
		for _, w := range v.Succs() {
			addPair(v, w)
		}
		// Common-consumer pairs: v and w feed the same operation.
		for _, u := range v.Succs() {
			for _, w := range u.Preds() {
				addPair(v, w)
			}
		}
	}
	return cands
}

// improveWith runs the iterative boundary-perturbation loop under one
// quality function. When sideways > 0, up to that many consecutive
// equal-quality steps are accepted (never revisiting a binding), which is
// the stronger variant mentioned in the paper's footnote 4.
//
// Each round's candidates are independent single/pair re-bindings of the
// same current solution, so their evaluation fans out over the engine's
// worker pool — every worker scheduling virtually on its own scratch
// evaluator, no bound graph built anywhere; the reduction then scans the
// index-ordered records in enumeration order with the sequential
// tie-break (strictly better quality, or equal quality with fewer
// moves), which makes the accepted move — and therefore the whole
// trajectory — bit-identical to the sequential path at any parallelism.
//
// improveWith is an anytime loop: every accepted move keeps quality
// monotonically non-worsening, so cancellation at any round boundary —
// or mid-round, in which case the partial round is discarded — returns
// the current solution with a non-nil cause instead of an error. A
// panic injected at the round seam (HookIterRound) degrades the same
// way; only a non-transient evaluation failure aborts with an error.
func improveWith(ctx context.Context, en *engine, cur solution, pass string, quality func(*evalRec) Quality, sideways int, opts Options) (sol solution, cause error, err error) {
	g, dp := en.p.Graph(), en.p.Datapath()
	en.setPhase("biter." + pass)
	stop := func(round int, verdict string) {
		en.emit(obs.Event{Type: obs.EvIterStop, Pass: pass, Round: round, Verdict: verdict})
	}
	curQ := quality(cur.rec)
	seen := map[string]bool{bindingKey(cur.bn): true}
	plateau := 0
	iter := 0
	for ; opts.MaxIterations == 0 || iter < opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			stop(iter, "cancelled")
			return cur, context.Cause(ctx), nil
		}
		if herr := en.fireGuarded(HookIterRound); herr != nil {
			stop(iter, "fault")
			return cur, herr, nil
		}
		// A new round: the round before last leaves the memo cache.
		en.cache.advance()
		// Materialize this round's perturbed bindings, dropping
		// already-visited solutions. seen is read-only for the rest of
		// the round, so the workers never touch it.
		var bns [][]int
		var keys []string
		for _, cand := range perturbations(g, dp, cur.bn, opts) {
			bn := append([]int(nil), cur.bn...)
			for i, id := range cand.ids {
				bn[id] = cand.clusters[i]
			}
			if key := bindingKey(bn); !seen[key] {
				bns = append(bns, bn)
				keys = append(keys, key)
			}
		}
		en.emit(obs.Event{Type: obs.EvIterRound, Pass: pass,
			Round: iter + 1, Candidates: len(bns)})
		recs := make([]*evalRec, len(bns))
		errs := en.runBatch(ctx, len(bns), func(worker, i int) error {
			var err error
			recs[i], err = en.evaluate(ctx, worker, bns[i], keys[i])
			return err
		})
		bestIdx := -1
		var bestQ Quality
		for i, rec := range recs {
			if errs[i] != nil {
				if canceled(ctx, errs[i]) {
					// Mid-round cancellation: discard the incomplete
					// round so the trajectory up to here stays exactly
					// the deterministic one, and keep the best-so-far.
					stop(iter+1, "cancelled")
					return cur, errs[i], nil
				}
				return solution{}, nil, errs[i]
			}
			q := quality(rec)
			if bestIdx < 0 || q.Less(bestQ) ||
				(q.Equal(bestQ) && rec.m < recs[bestIdx].m) {
				bestIdx, bestQ = i, q
			}
		}
		if bestIdx < 0 {
			stop(iter+1, "exhausted")
			return cur, nil, nil
		}
		verdict := "better"
		switch {
		case bestQ.Less(curQ):
			plateau = 0
		case bestQ.Equal(curQ) && plateau < sideways:
			plateau++
			verdict = "plateau"
		default:
			stop(iter+1, "worse")
			return cur, nil, nil
		}
		en.emit(obs.Event{Type: obs.EvIterAccept, Pass: pass, Round: iter + 1,
			Verdict: verdict, Key: keyHex(bns[bestIdx]),
			L: recs[bestIdx].l, M: recs[bestIdx].m,
			Before: curQ, After: bestQ})
		cur, curQ = solution{bn: bns[bestIdx], rec: recs[bestIdx]}, bestQ
		seen[keys[bestIdx]] = true
	}
	stop(iter, "max-iterations")
	return cur, nil, nil
}

// Improve is phase two of the algorithm (B-ITER, Section 3.2): iterative
// boundary perturbations, first driven by Q_U until latency stops
// improving, then by Q_M to reduce the number of data transfers without
// giving back latency.
func Improve(res *Result, opts Options) (*Result, error) {
	return ImproveContext(context.Background(), res, opts)
}

// ImproveContext is Improve as an anytime algorithm: the input result is
// a certified floor, every accepted perturbation is monotonically
// non-worsening, and a cancellation, deadline, or isolated fault at any
// point returns the best solution reached so far — tagged Degraded with
// the cause in Budget — never an error. The returned binding is always
// at least as good as the input by (L, moves).
func ImproveContext(ctx context.Context, res *Result, opts Options) (*Result, error) {
	if res == nil {
		return nil, fmt.Errorf("bind: Improve needs a phase-one result")
	}
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	en, err := newEngine(res.Graph, res.Datapath, opts)
	if err != nil {
		return nil, err
	}
	// The input already carries its schedule, so its record costs nothing.
	start := solution{
		bn:  res.Binding,
		rec: &evalRec{l: res.L(), m: res.Moves(), qu: QualityU(res.Schedule)},
	}
	sol, cause, err := improve(ctx, en, start, opts)
	if err != nil {
		return nil, err
	}
	if cause == nil && sol.rec == start.rec {
		return res, nil
	}
	if cause != nil {
		return en.materializeDegraded(sol, cause)
	}
	return en.materialize(sol)
}

// improve is Improve on an existing evaluation engine (opts already
// defaulted). Sharing the engine across both passes means the Q_M pass's
// first perturbation round — the very neighborhood the Q_U pass just
// finished scoring — comes straight from the cache's previous
// generation. Solutions stay virtual throughout; the caller materializes
// the one it keeps.
//
// A non-nil cause means the improvement was cut short (cancellation or
// an isolated fault) and sol is the best solution certified before the
// cut; err is reserved for hard failures with no usable solution.
func improve(ctx context.Context, en *engine, sol solution, opts Options) (out solution, cause error, err error) {
	cur, cause, err := improveWith(ctx, en, sol, "qu", qualU, opts.Sideways, opts)
	if err != nil {
		return solution{}, nil, err
	}
	if cause == nil {
		cur, cause, err = improveWith(ctx, en, cur, "qm", qualM, 0, opts)
		if err != nil {
			return solution{}, nil, err
		}
	}
	// Keep the better of (phase input, improved): Q_M can only have kept
	// or reduced moves at equal or better latency, but guard anyway.
	if cur.rec.l > sol.rec.l || (cur.rec.l == sol.rec.l && cur.rec.m > sol.rec.m) {
		return sol, cause, nil
	}
	return cur, cause, nil
}

// Bind runs both phases: the swept greedy initial binding followed by
// iterative improvement of the best few distinct phase-one candidates.
// This is the paper's full B-ITER configuration. One evaluation engine —
// shared Problem, a worker pool sized by Options.Parallelism with
// per-worker scratch evaluators, and the memoization cache — is shared
// across the driver sweep, every improvement seed, and both improvement
// passes, so a binding scored in the current or the previous
// perturbation round is served from the cache instead of rescheduled.
// Nothing is materialized until the single winning binding is known.
func Bind(g *dfg.Graph, dp *machine.Datapath, opts Options) (*Result, error) {
	return BindContext(context.Background(), g, dp, opts)
}

// BindContext is Bind as an anytime algorithm. The B-INIT driver sweep
// is all-or-nothing: cancellation before it completes returns an error
// wrapping context.Cause, because no certified candidate exists yet.
// From the moment the sweep ranks its candidates, the best phase-one
// solution is the floor, improvement only raises it, and a cancellation,
// deadline, or isolated fault anywhere in B-ITER returns the best
// binding found so far tagged Degraded/Budget — guaranteed no worse
// than plain B-INIT's (L, moves) on the same input. Without cancellation
// the result is bit-identical to Bind at any Parallelism.
func BindContext(ctx context.Context, g *dfg.Graph, dp *machine.Datapath, opts Options) (*Result, error) {
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
	if len(sols) == 0 {
		return nil, fmt.Errorf("bind: driver sweep produced no candidates for %q", g.Name())
	}
	// The ranked sweep winner is the anytime floor: from here on the
	// answer can only get better, so any interruption degrades to best.
	best := sols[0]
	var degradedCause error
	for _, s := range sols {
		if ctx.Err() != nil {
			degradedCause = context.Cause(ctx)
			break
		}
		imp, cause, err := improve(ctx, en, s, opts)
		if err != nil {
			return nil, err
		}
		if imp.rec.l < best.rec.l ||
			(imp.rec.l == best.rec.l && imp.rec.m < best.rec.m) {
			best = imp
		}
		if cause != nil {
			degradedCause = cause
			break
		}
	}
	if degradedCause != nil {
		return en.materializeDegraded(best, degradedCause)
	}
	return en.materialize(best)
}
