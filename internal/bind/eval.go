package bind

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
	"vliwbind/internal/problem"
)

// This file is the parallel evaluation engine shared by both binding
// phases. The expensive inner operation of the whole algorithm is
// candidate evaluation — move synthesis plus a full list schedule — and
// both the B-INIT driver sweep and every B-ITER perturbation round run
// many evaluations on candidates that are completely independent of each
// other. The engine runs those batches on a size-bounded worker pool,
// giving each worker its own problem.Evaluator (reusable scratch, no
// bound graph materialized per candidate), and memoizes compact
// (L, M, Q_U) records per binding over the two most recent B-ITER
// rounds, at every pool size. The final answer stays bit-identical
// to the sequential code path: candidates are collected into
// index-ordered slices and reduced in enumeration order with the same
// lexicographic tie-breaks, never first-goroutine-wins.
//
// The engine's pool is also the one fault boundary of the whole stack:
// the binding batches and the explorer's design points (RunTasks) all
// run on it. Every task runs under a recover that converts a panic into
// a per-task *PanicError with the goroutine's stack captured, so a
// fault in one task can never take down the pool, leak a worker
// goroutine, or poison the memo cache (records are inserted only after
// a fully successful evaluation). A panicking evaluation is retried
// taskRetries times with exponential backoff, and cancellation
// is observed between tasks: a cancelled batch drains in microseconds
// because every undispatched task short-circuits to the context's
// cause.

// Hook points of the evaluation engine, fired through Options.Hook when
// it is set. They exist for deterministic fault injection (see
// internal/faultinject): a test hook may sleep, cancel a context, or
// panic at any of these seams, and the engine must still either finish
// cleanly, degrade to the best solution found, or return a descriptive
// error — never crash, leak a goroutine, or corrupt the cache.
const (
	// HookPoolTask fires at the start of every worker-pool task attempt
	// — once per attempt, so a retried task fires it again.
	HookPoolTask = "bind.pool.task"
	// HookSweepConfig fires once per B-INIT driver configuration
	// (one (L_PR, direction) greedy pass).
	HookSweepConfig = "bind.sweep.config"
	// HookIterRound fires at the top of every B-ITER perturbation round.
	HookIterRound = "bind.biter.round"
	// HookEvaluate fires at the entry of every memoized evaluation.
	HookEvaluate = "bind.engine.evaluate"
	// HookCompute fires inside a cache miss, immediately before the
	// virtual schedule runs — a panic here models an evaluator fault.
	HookCompute = "bind.engine.compute"
	// HookCacheLookup fires before the memo-cache lookup.
	HookCacheLookup = "bind.cache.lookup"
	// HookCacheInsert fires after a successful computation, before its
	// record is inserted into the memo cache.
	HookCacheInsert = "bind.cache.insert"
)

// PanicError is a panic recovered from a pool task, converted into an
// ordinary per-task error: the recovered value plus the stack of the
// panicking goroutine, captured at the recovery site. The engine
// retries a panicking evaluation with backoff (a one-shot injected
// fault does not repeat); a PanicError that reaches a binder's caller
// means those retries were exhausted.
type PanicError struct {
	// Value is the value the task panicked with.
	Value any
	// Stack is the formatted stack trace of the panicking goroutine.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("bind: task panicked: %v", e.Value)
}

// canceled reports whether err stems from ctx being cancelled — either
// the standard context errors or the custom cause installed with
// context.WithCancelCause.
func canceled(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if cause := context.Cause(ctx); cause != nil && errors.Is(err, cause) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CacheStats accumulates hit/miss counters of the schedule-evaluation
// cache across a binding run. Hand one to Options.Stats to observe cache
// effectiveness; all methods are safe for concurrent use. The cache is
// active at every Options.Parallelism, so every evaluation counts
// exactly one hit or one miss.
type CacheStats struct {
	hits, misses, retries atomic.Int64

	// Cross-request result-store verdicts, moved by the facade (package
	// vliwbind), which owns store lookup and audit-on-read. They live on
	// CacheStats so one Options.Stats value accounts for every cache
	// layer of a run.
	storeHits, storeMisses, storeEvicts atomic.Int64
}

// Hits returns how many evaluations were served from the cache without
// rescheduling.
func (s *CacheStats) Hits() int64 { return s.hits.Load() }

// Misses returns how many evaluations had to synthesize moves and run
// the list scheduler. A retried task counts a single miss when it
// finally succeeds, never one per attempt.
func (s *CacheStats) Misses() int64 { return s.misses.Load() }

// Retries returns how many panicking evaluation tasks the engine re-ran
// with backoff.
func (s *CacheStats) Retries() int64 { return s.retries.Load() }

// StoreHits returns how many requests were served from the cross-request
// result store (each carrying a fresh audit certificate).
func (s *CacheStats) StoreHits() int64 { return s.storeHits.Load() }

// StoreMisses returns how many requests consulted the result store and
// fell through to a full search.
func (s *CacheStats) StoreMisses() int64 { return s.storeMisses.Load() }

// StoreEvicts returns how many store hits failed adoption or audit and
// were evicted instead of served. Every evict is also counted as a miss
// (the search that follows really runs).
func (s *CacheStats) StoreEvicts() int64 { return s.storeEvicts.Load() }

// RecordStoreHit, RecordStoreMiss and RecordStoreEvict move the store
// counters. They are exported for the facade, which implements the
// store's read path in package vliwbind (audit lives above this
// package); ordinary callers only ever read the counters.
func (s *CacheStats) RecordStoreHit() { s.storeHits.Add(1) }

// RecordStoreMiss counts one store consultation that fell through to a
// search.
func (s *CacheStats) RecordStoreMiss() { s.storeMisses.Add(1) }

// RecordStoreEvict counts one store entry evicted after failing
// adoption or audit.
func (s *CacheStats) RecordStoreEvict() { s.storeEvicts.Add(1) }

// The one retry policy: a panicking evaluation task is re-run up to
// taskRetries times, backing off exponentially from retryBaseDelay
// (1ms, then 2ms), each sleep abandoned early if the context ends.
const (
	taskRetries    = 2
	retryBaseDelay = time.Millisecond
)

// evalRec is everything the binding algorithms consume about a candidate
// before deciding to keep it: the latency, the move count, and the full
// Q_U quality vector. It deliberately carries no bound graph and no
// Schedule — those are materialized once, for final winners only.
type evalRec struct {
	l, m int
	qu   Quality // [L, U_0, U_1, …] — see QualityU
}

// solution pairs a binding with its evaluation record as it flows
// through the driver sweep and the improvement passes.
type solution struct {
	bn  []int
	rec *evalRec
}

// recCache memoizes evaluation records by bindingKey for two B-ITER
// rounds: cur holds this round's records, prev the previous round's
// (which is where the Q_M pass's first round finds the Q_U pass's last).
// A prev hit is promoted into cur. advance, called between pool batches
// once per round, swaps the maps and clears the new cur, so memory stays
// one round's worth and no map is reallocated. Guarded by a plain mutex:
// the critical section is a map operation, vanishingly small next to the
// list schedule a miss pays for. Two workers racing on the same missing
// key both compute it (evaluation is deterministic, so either record is
// THE record); one insert wins.
type recCache struct {
	mu        sync.Mutex
	cur, prev map[string]*evalRec
}

func (c *recCache) get(key string) (*evalRec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.cur[key]
	if !ok {
		if r, ok = c.prev[key]; ok {
			c.cur[key] = r
		}
	}
	return r, ok
}

func (c *recCache) put(key string, r *evalRec) {
	c.mu.Lock()
	c.cur[key] = r
	c.mu.Unlock()
}

func (c *recCache) advance() {
	c.mu.Lock()
	c.cur, c.prev = c.prev, c.cur
	clear(c.cur)
	c.mu.Unlock()
}

// workerPool runs batches of independent tasks on a bounded number of
// goroutines. Size 1 degenerates to a plain in-order loop. Tasks are
// handed out by an atomic counter, so an uneven batch keeps every worker
// busy until the batch drains. Each
// task receives the index of the worker running it, which the engine
// uses to hand out per-worker scratch evaluators.
//
// run is also the pool's fault and cancellation seam: every task runs
// under guard (panics become per-task *PanicError values), and the
// context is consulted before each dispatch, so a cancelled batch fills
// its remaining error slots with the context cause instead of running.
// Workers are joined before run returns in every case — a panicking or
// cancelled batch can never leak a goroutine.
type workerPool struct {
	workers int
}

// run executes n independent tasks and returns one error slot per task
// (nil for clean completions). onPanic, when non-nil, is told which
// worker's task panicked before the panic is converted to an error —
// the engine uses it to discard that worker's possibly half-mutated
// scratch evaluator.
func (p workerPool) run(ctx context.Context, n int, task func(worker, i int) error, onPanic func(worker int)) []error {
	errs := make([]error, n)
	runOne := func(worker, i int) {
		if ctx.Err() != nil {
			errs[i] = context.Cause(ctx)
			return
		}
		errs[i] = guard(worker, onPanic, func() error { return task(worker, i) })
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			runOne(0, i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(worker, i)
			}
		}(k)
	}
	wg.Wait()
	return errs
}

// RunTasks runs task(i) for i in [0, n) on the engine's worker pool with
// at most workers goroutines (<= 1 runs in order on the caller's
// goroutine) and returns one error slot per task. It is the fan-out
// entry for callers above the engine, such as the explorer's design
// points: a panicking task becomes that slot's *PanicError, and once ctx
// ends every undispatched task's slot holds the context's cause. Tasks
// are not retried — each one is expected to be a whole binding, whose
// evaluations already ran under the engine's retry policy.
func RunTasks(ctx context.Context, workers, n int, task func(i int) error) []error {
	return workerPool{workers: workers}.run(ctx, n, func(_, i int) error { return task(i) }, nil)
}

// guard runs one task body, converting a panic into a *PanicError with
// the panicking goroutine's stack captured. The recover happens inside
// the worker's task loop, so the worker survives and keeps draining the
// batch.
func guard(worker int, onPanic func(worker int), f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			if onPanic != nil {
				onPanic(worker)
			}
			err = &PanicError{Value: r, Stack: buf}
		}
	}()
	return f()
}

// backoffSleep waits out the exponential delay before retry attempt
// (1-based), returning early if the context ends first.
func backoffSleep(ctx context.Context, attempt int) {
	t := time.NewTimer(retryBaseDelay << (attempt - 1))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// engine bundles the shared Problem, the worker pool, per-worker scratch
// evaluators and the memoization cache for one binding run. Bind creates
// a single engine and shares it across the B-INIT driver sweep, every
// improvement seed, and both the Q_U and Q_M passes of B-ITER, so a
// binding is not rescheduled while it is in the cache's two-round scope
// (see recCache).
type engine struct {
	p      *problem.Problem
	pool   workerPool
	evs    []*problem.Evaluator // per-worker scratch, created lazily
	cache  recCache             // two-round memo, active at every Parallelism
	stats  *CacheStats          // nil unless the caller asked for counters
	hook   func(point string)   // nil unless the caller injects faults
	obs    obs.Observer         // nil unless the caller observes events
	kernel string               // graph name, stamped on every event
	phase  string               // current engine phase; written only
	// between pool batches (the WaitGroup join orders the write against
	// every worker read), so event emission never races on it
}

// newEngine builds the evaluation engine for defaulted opts. It fails
// when the datapath cannot run the graph at all (the same up-front check
// every binder used to make individually).
func newEngine(g *dfg.Graph, dp *machine.Datapath, opts Options) (*engine, error) {
	p, err := problem.New(g, dp)
	if err != nil {
		return nil, err
	}
	en := &engine{
		p:      p,
		pool:   workerPool{workers: opts.Parallelism},
		evs:    make([]*problem.Evaluator, opts.Parallelism),
		cache:  recCache{cur: map[string]*evalRec{}, prev: map[string]*evalRec{}},
		stats:  opts.Stats,
		hook:   opts.Hook,
		obs:    opts.Observer,
		kernel: g.Name(),
	}
	return en, nil
}

// fire invokes the fault-injection hook at a named seam when one is
// installed. Callers inside pool tasks rely on guard to absorb a hook
// panic; callers outside the pool must wrap the call themselves (see
// fireGuarded).
func (en *engine) fire(point string) {
	if en.hook != nil {
		en.hook(point)
	}
}

// fireGuarded fires a hook outside the pool's recover, converting a
// hook panic into an error instead of letting it unwind the binder.
func (en *engine) fireGuarded(point string) error {
	if en.hook == nil {
		return nil
	}
	return guard(-1, nil, func() error { en.hook(point); return nil })
}

// emit hands one observability event to the observer, stamping the
// engine's kernel and current phase onto fields the caller left empty.
// A nil observer — the production default — costs one branch; emission
// never alters control flow, which is what keeps observed runs
// bit-identical to silent ones.
func (en *engine) emit(e obs.Event) {
	if en.obs == nil {
		return
	}
	if e.Kernel == "" {
		e.Kernel = en.kernel
	}
	if e.Phase == "" {
		e.Phase = en.phase
	}
	en.obs.Event(e)
}

// setPhase names the engine phase for subsequent events and pprof
// labels. Call only between pool batches (see the phase field).
func (en *engine) setPhase(phase string) { en.phase = phase }

// discardScratch drops a worker's scratch evaluator after a panic: the
// evaluator may have been mid-schedule when the stack unwound, and a
// fresh one costs far less than reasoning about its partial state.
// Worker k's slot is only ever touched by the goroutine currently
// running worker k's tasks, so the write is unsynchronized by design;
// -1 (a fireGuarded hook outside the pool) touches nothing.
func (en *engine) discardScratch(worker int) {
	if worker >= 0 && worker < len(en.evs) {
		en.evs[worker] = nil
	}
}

// runBatch runs n independent tasks on the pool, then retries any
// recovered panic sequentially under the fixed policy (taskRetries,
// exponential backoff). Retries re-run the original task
// closure, so a retried evaluation lands in the same result slot; they
// run on worker 0's scratch after the pool has fully drained, which
// keeps the per-worker-evaluator invariant intact.
//
// Every task attempt fires HookPoolTask before its body runs (inside
// the pool's guard, so an injected panic at that seam is an ordinary
// task fault). With an observer attached, each attempt additionally
// runs under pprof labels naming the engine phase and kernel, and the
// whole batch is summarized as one pool.batch event carrying the
// aggregate queue (submit → start) and execute times.
func (en *engine) runBatch(ctx context.Context, n int, task func(worker, i int) error) []error {
	attempt := task
	var queueNs, execNs atomic.Int64
	var batchStart time.Time
	if en.obs != nil {
		batchStart = time.Now()
		labels := pprof.Labels("bind_phase", en.phase, "bind_kernel", en.kernel)
		attempt = func(worker, i int) error {
			en.fire(HookPoolTask)
			start := time.Now()
			queueNs.Add(start.Sub(batchStart).Nanoseconds())
			var err error
			pprof.Do(ctx, labels, func(context.Context) { err = task(worker, i) })
			execNs.Add(time.Since(start).Nanoseconds())
			return err
		}
	} else {
		attempt = func(worker, i int) error {
			en.fire(HookPoolTask)
			return task(worker, i)
		}
	}
	errs := en.pool.run(ctx, n, attempt, en.discardScratch)
	for i := range errs {
		var pe *PanicError
		for a := 1; a <= taskRetries && errors.As(errs[i], &pe); a++ {
			if ctx.Err() != nil {
				errs[i] = context.Cause(ctx)
				break
			}
			if en.stats != nil {
				en.stats.retries.Add(1)
			}
			en.emit(obs.Event{Type: obs.EvRetry, Err: errs[i].Error()})
			backoffSleep(ctx, a)
			i := i
			errs[i] = guard(0, en.discardScratch, func() error { return attempt(0, i) })
		}
	}
	if en.obs != nil && n > 0 {
		en.emit(obs.Event{Type: obs.EvPoolBatch, Tasks: n,
			QueueNs: queueNs.Load(), ExecNs: execNs.Load()})
	}
	return errs
}

// evaluatorFor returns worker's private scratch evaluator, creating it
// on first use. Worker k's tasks run on one goroutine per pool batch,
// and batches are separated by WaitGroup waits, so the slot is never
// accessed concurrently.
func (en *engine) evaluatorFor(worker int) *problem.Evaluator {
	if en.evs[worker] == nil {
		en.evs[worker] = en.p.NewEvaluator()
	}
	return en.evs[worker]
}

// compute runs one virtual evaluation on worker's scratch and snapshots
// the record the binding algorithms need.
func (en *engine) compute(worker int, bn []int) (*evalRec, error) {
	en.fire(HookCompute)
	ev := en.evaluatorFor(worker)
	e, err := ev.Evaluate(bn)
	if err != nil {
		return nil, err
	}
	return &evalRec{l: e.L, m: e.M, qu: Quality(ev.AppendQualityU(nil))}, nil
}

// evaluate is compute behind the memoization cache, under key =
// bindingKey(bn). Records are shared and must be treated as immutable
// by callers. A cancelled context short-circuits to its cause before any
// work; a failed computation is never inserted into the cache, and the
// miss counter moves only after a fully successful computation —
// retried tasks count once.
func (en *engine) evaluate(ctx context.Context, worker int, bn []int, key string) (*evalRec, error) {
	en.fire(HookEvaluate)
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	en.fire(HookCacheLookup)
	if r, ok := en.cache.get(key); ok {
		// The eval event rides right next to the counter move, so a
		// journal's per-verdict totals always equal the CacheStats a
		// caller reads after the run.
		if en.stats != nil {
			en.stats.hits.Add(1)
		}
		if en.obs != nil {
			en.emit(obs.Event{Type: obs.EvEval, Key: keyHex(bn), L: r.l, M: r.m, QU: r.qu, Cache: "hit"})
		}
		return r, nil
	}
	r, err := en.compute(worker, bn)
	if err != nil {
		return nil, err
	}
	// The insert hook fires before the counters and the map move: a
	// panic injected here unwinds with the cache and stats untouched,
	// so the retry that follows recomputes and counts exactly once.
	en.fire(HookCacheInsert)
	if en.stats != nil {
		en.stats.misses.Add(1)
	}
	if en.obs != nil {
		en.emit(obs.Event{Type: obs.EvEval, Key: keyHex(bn), L: r.l, M: r.m, QU: r.qu, Cache: "miss"})
	}
	en.cache.put(key, r)
	return r, nil
}

// materialize builds the full Result — bound graph, bound binding and
// list schedule — for a solution the caller keeps. The schedule it
// produces is bit-identical to what the virtual evaluation promised.
func (en *engine) materialize(sol solution) (*Result, error) {
	res, err := Evaluate(en.p.Graph(), en.p.Datapath(), sol.bn)
	if err != nil {
		return nil, err
	}
	en.emitRoutePicks(res)
	return res, nil
}

// emitRoutePicks journals one route.pick event per data transfer of the
// materialized winner: endpoint clusters, hop count, and the link ids
// the route rides. Emitted only for the final schedule — candidate
// evaluations stay silent — so aggregating the journal's route.pick
// events per link reproduces the winner's link occupancy exactly.
func (en *engine) emitRoutePicks(res *Result) {
	if en.obs == nil {
		return
	}
	dp := res.Datapath
	for _, n := range res.Bound.Nodes() {
		if !n.IsMove() {
			continue
		}
		src := n.TransferFor()
		if src == nil {
			continue
		}
		from, to := res.Schedule.Cluster[src.ID()], res.Schedule.Cluster[n.ID()]
		route := dp.Route(from, to)
		if route == nil {
			route = []int{0} // degenerate same-cluster transfer: link 0, like the scheduler
		}
		en.emit(obs.Event{Type: obs.EvRoutePick, Op: n.Name(),
			Src: from, Dst: to, Hops: len(route), Links: append([]int(nil), route...)})
	}
}

// materializeDegraded materializes a solution that an expiring budget
// (or an isolated fault) cut short, tagging it with the cause. The
// solution itself is a fully valid binding — degradation is about how
// far the search got, never about the legality of what it returns.
func (en *engine) materializeDegraded(sol solution, cause error) (*Result, error) {
	res, err := en.materialize(sol)
	if err != nil {
		return nil, err
	}
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	en.emit(obs.Event{Type: obs.EvDegraded, Key: keyHex(sol.bn),
		L: sol.rec.l, M: sol.rec.m, Err: msg})
	res.Degraded = true
	res.Budget = cause
	return res, nil
}
