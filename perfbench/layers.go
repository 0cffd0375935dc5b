package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"vliwbind"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/codegen"
	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
	"vliwbind/internal/modulo"
	"vliwbind/internal/optbind"
	"vliwbind/internal/pcc"
	"vliwbind/internal/problem"
	"vliwbind/internal/regpressure"
	"vliwbind/internal/sched"
	"vliwbind/internal/server"
	"vliwbind/internal/store"
	"vliwbind/internal/textio"
	"vliwbind/internal/vliwsim"
)

// The traced run's layer probes: each times calls into one module's
// public functions, from this file, on the workload's own inputs
// (w.cases). Every call is a span; a layer metric is the median span
// duration unless stated otherwise.

// probeReps is how often each cheap call is repeated per case.
const probeReps = 20

// timed runs fn n times, each call inside its own span.
func timed(tr *tracer, name string, req, n int, fn func()) {
	for k := 0; k < n; k++ {
		sp := tr.start(name, 0, int64(req))
		fn()
		tr.end(sp)
	}
}

// allocsPer is the mean heap allocation count of one fn call.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for k := 0; k < n; k++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// fromSpans sets metric to the median duration of the spans named
// span, in units of unit.
func fromSpans(rep *report, tr *tracer, metric, span string, unit time.Duration) {
	d := tr.durations(span)
	rep.layer[metric] = sample{median(d) / float64(unit), len(d)}
}

func probeLayers(cfg config, w workload, tr *tracer, rep *report) {
	cases := w.cases()
	answers := probeBinders(cases, tr, rep)
	probeEvaluation(cases, answers, tr, rep)
	dir, err := os.MkdirTemp(cfg.workdir, "probe-store-")
	if err != nil {
		rep.op(err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := probeStore(dir, cases, answers, tr, rep)
	if err != nil {
		rep.op(fmt.Errorf("store probe: %w", err))
		return
	}
	defer st.Close()
	probeFacade(st, cases, tr, rep)
	probeServer(st, cases, tr, rep)
	if _, ok := rep.layer["server.outside_bind_hit_ms"]; !ok {
		probeServed(cases, rep)
	}
	probeExplore(cfg, tr, rep)
}

// probeBinders runs PCC, B-INIT and B-ITER once per case, with a
// Metrics observer counting the search's work, and returns the B-ITER
// answers (nil where a bind failed).
func probeBinders(cases []layerCase, tr *tracer, rep *report) []*vliwbind.Result {
	answers := make([]*vliwbind.Result, len(cases))
	var biter time.Duration
	var configs, rounds, evals, accepts int64
	for i, c := range cases {
		var err error
		timed(tr, "pcc.bind", i, 1, func() { _, err = pcc.Bind(c.g, c.dp, pcc.Options{}) })
		rep.op(err)
		mi, mb := vliwbind.NewMetrics(), vliwbind.NewMetrics()
		t := time.Now()
		timed(tr, "bind.initial", i, 1, func() {
			_, err = bind.Initial(c.g, c.dp, bind.Options{Parallelism: 1, Observer: mi})
		})
		tInit := time.Since(t)
		rep.op(err)
		var res *vliwbind.Result
		t = time.Now()
		timed(tr, "bind.bind", i, 1, func() {
			res, err = bind.Bind(c.g, c.dp, bind.Options{Parallelism: 1, Observer: mb})
		})
		tBind := time.Since(t)
		if err == nil {
			err = checkResult(res)
		}
		rep.op(err)
		if err == nil {
			answers[i] = res
		}
		biter += tBind - tInit
		ci, cb := mi.Snapshot().Counters, mb.Snapshot().Counters
		configs += ci["sweep.configs"]
		rounds += cb["iter.rounds"]
		evals += cb["evals"]
		accepts += cb["iter.accepts"]
	}
	n := len(cases)
	fromSpans(rep, tr, "pcc.bind_ms", "pcc.bind", time.Millisecond)
	fromSpans(rep, tr, "bind.binit_ms", "bind.initial", time.Millisecond)
	rep.layer["bind.sweep_configs"] = sample{float64(configs), n}
	rep.layer["bind.biter_ms"] = sample{ms(biter) / float64(n), n}
	rep.layer["bind.iter_rounds"] = sample{float64(rounds), n}
	rep.layer["bind.round_us"] = sample{us(biter) / float64(max(rounds, 1)), int(rounds)}
	rep.layer["bind.evals"] = sample{float64(evals), n}
	rep.layer["bind.accept_ratio"] = sample{float64(accepts) / float64(max(evals, 1)), int(evals)}
	return answers
}

// probeEvaluation times the virtual evaluator, materialization and
// each sub-check of the audit on every case's B-ITER answer.
func probeEvaluation(cases []layerCase, answers []*vliwbind.Result, tr *tracer, rep *report) {
	var evalAllocs, auditAllocs []float64
	for i, c := range cases {
		res := answers[i]
		if res == nil {
			continue
		}
		bn := res.Binding
		var p *problem.Problem
		timed(tr, "problem.new", i, probeReps, func() {
			var err error
			if p, err = problem.New(c.g, c.dp); err != nil {
				rep.op(err)
			}
		})
		if p == nil {
			continue
		}
		ev := p.NewEvaluator()
		evaluate := func() {
			if _, err := ev.Evaluate(bn); err != nil {
				rep.op(err)
			}
		}
		timed(tr, "problem.evaluate", i, probeReps, evaluate)
		evalAllocs = append(evalAllocs, allocsPer(probeReps, evaluate))
		if c.dp.NumClusters() >= 2 {
			ring, err := machine.Parse(c.dp.String(), machine.Config{Topology: machine.TopoRing,
				MoveLat: c.dp.MoveLat(), MoveDII: c.dp.MoveDII()})
			if err == nil {
				p, err = problem.New(c.g, ring)
			}
			if err != nil {
				rep.op(err)
				continue
			}
			evRing := p.NewEvaluator()
			timed(tr, "problem.evaluate_ring", i, probeReps, func() {
				if _, err := evRing.Evaluate(bn); err != nil {
					rep.op(err)
				}
			})
		}

		timed(tr, "bind.evaluate", i, probeReps, func() {
			if _, err := bind.Evaluate(c.g, c.dp, bn); err != nil {
				rep.op(err)
			}
		})
		bg, bb, err := problem.BuildBound(c.g, bn)
		if err != nil {
			rep.op(err)
			continue
		}
		timed(tr, "sched.list", i, probeReps, func() {
			if _, err := sched.List(bg, c.dp, bb); err != nil {
				rep.op(err)
			}
		})

		// The audit, whole and split into the sub-checks it runs.
		s := res.Schedule
		whole := func() {
			if err := audit.Audit(res); err != nil {
				rep.op(err)
			}
		}
		timed(tr, "audit.audit", i, probeReps, whole)
		auditAllocs = append(auditAllocs, allocsPer(probeReps, whole))
		timed(tr, "audit.dfg_validate", i, probeReps, func() {
			if err := dfg.Validate(c.g); err != nil {
				rep.op(err)
			}
			if err := dfg.Validate(res.Bound); err != nil {
				rep.op(err)
			}
		})
		timed(tr, "audit.buildbound", i, probeReps, func() {
			if _, _, err := problem.BuildBound(c.g, bn); err != nil {
				rep.op(err)
			}
		})
		timed(tr, "audit.sched_check", i, probeReps, func() {
			if err := sched.Check(s); err != nil {
				rep.op(err)
			}
		})
		timed(tr, "audit.vliwsim", i, probeReps, func() {
			for _, in := range probeInputs(c.g.NumInputs()) {
				if err := vliwsim.Verify(s, in); err != nil {
					rep.op(err)
				}
			}
		})
		var a *codegen.Alloc
		timed(tr, "audit.codegen_allocate", i, probeReps, func() {
			if a, err = codegen.Allocate(s, 0); err != nil {
				rep.op(err)
			}
		})
		if a != nil {
			timed(tr, "audit.alloc_check", i, probeReps, func() {
				if err := audit.AuditAlloc(s, a); err != nil {
					rep.op(err)
				}
			})
		}
	}
	fromSpans(rep, tr, "problem.new_us", "problem.new", time.Microsecond)
	fromSpans(rep, tr, "problem.evaluate_us", "problem.evaluate", time.Microsecond)
	rep.layer["problem.evaluate_allocs"] = sample{median(evalAllocs), len(evalAllocs)}
	fromSpans(rep, tr, "problem.evaluate_ring_us", "problem.evaluate_ring", time.Microsecond)
	fromSpans(rep, tr, "bind.evaluate_us", "bind.evaluate", time.Microsecond)
	fromSpans(rep, tr, "sched.list_us", "sched.list", time.Microsecond)
	fromSpans(rep, tr, "audit.total_us", "audit.audit", time.Microsecond)
	rep.layer["audit.allocs"] = sample{median(auditAllocs), len(auditAllocs)}
	for _, sub := range []string{"dfg_validate", "buildbound", "sched_check", "vliwsim", "codegen_allocate", "alloc_check"} {
		fromSpans(rep, tr, "audit."+sub+"_us", "audit."+sub, time.Microsecond)
	}
}

// probeStore times canonicalization, result keys and journal appends,
// publishing every case's B-ITER answer into a journal-backed store in
// dir, then times lookups against it. It returns the warmed store.
func probeStore(dir string, cases []layerCase, answers []*vliwbind.Result, tr *tracer, rep *report) (*vliwbind.ResultStore, error) {
	st, err := vliwbind.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	fp, err := vliwbind.Options{}.Fingerprint()
	if err != nil {
		st.Close()
		return nil, err
	}
	var keys []store.Key
	for i, c := range cases {
		res := answers[i]
		if res == nil {
			continue
		}
		var canon *store.Canon
		timed(tr, "store.canonicalize", i, probeReps, func() {
			if canon, err = store.Canonicalize(c.g); err != nil {
				rep.op(err)
			}
		})
		if canon == nil {
			continue
		}
		var key store.Key
		timed(tr, "store.result_key", i, probeReps, func() {
			key = store.ResultKey(store.KindIter, canon, c.dp, fp)
		})
		ent := store.Entry{Key: key, Kind: store.KindIter, L: res.L(), M: res.Moves(),
			Binding: make([]int, len(canon.Order))}
		for k, id := range canon.Order {
			ent.Binding[k] = res.Binding[id]
		}
		timed(tr, "store.put", i, 3, func() {
			if err := st.Put(ent); err != nil {
				rep.op(err)
			}
		})
		keys = append(keys, key)
	}
	// A lookup is tens of nanoseconds, below what one span resolves, so
	// it is timed in runs of 1000.
	var lookups []float64
	for r := 0; r < 50 && len(keys) > 0; r++ {
		t := time.Now()
		for j := 0; j < 1000; j++ {
			if st.Get(keys[j%len(keys)]) == nil {
				rep.op(fmt.Errorf("store lookup missed a published key"))
			}
		}
		lookups = append(lookups, float64(time.Since(t))/1000)
	}
	fromSpans(rep, tr, "store.canonicalize_us", "store.canonicalize", time.Microsecond)
	fromSpans(rep, tr, "store.result_key_us", "store.result_key", time.Microsecond)
	rep.layer["store.lookup_ns"] = sample{median(lookups), 1000 * len(lookups)}
	fromSpans(rep, tr, "store.put_us", "store.put", time.Microsecond)
	return st, nil
}

// probeFacade times store hits through the root facade's Bind.
func probeFacade(st *vliwbind.ResultStore, cases []layerCase, tr *tracer, rep *report) {
	var allocs []float64
	for i, c := range cases {
		stats := &vliwbind.CacheStats{}
		opts := vliwbind.Options{Parallelism: 1, Store: st, Stats: stats}
		hit := func() {
			if _, err := vliwbind.Bind(c.g, c.dp, opts); err != nil {
				rep.op(err)
			}
		}
		timed(tr, "facade.store_hit", i, probeReps, hit)
		allocs = append(allocs, allocsPer(5, hit))
		if stats.StoreMisses() != 0 {
			rep.op(fmt.Errorf("facade probe %s: %d store misses", c.name, stats.StoreMisses()))
		}
		text := textio.PrintString(c.g)
		timed(tr, "textio.parse", i, probeReps, func() {
			if _, err := textio.ParseString(text); err != nil {
				rep.op(err)
			}
		})
	}
	fromSpans(rep, tr, "facade.store_hit_us", "facade.store_hit", time.Microsecond)
	rep.layer["facade.store_hit_allocs"] = sample{median(allocs), len(allocs)}
	fromSpans(rep, tr, "textio.parse_us", "textio.parse", time.Microsecond)
}

// probeServer times store-hit requests through the server's ServeHTTP
// on a recorder: the facade hit plus request decoding, the response
// audit and encoding, without a network.
func probeServer(st *vliwbind.ResultStore, cases []layerCase, tr *tracer, rep *report) {
	srv, err := server.New(server.Config{Workers: serveWorkers, Store: st,
		BindOptions: vliwbind.Options{Parallelism: 1}})
	if err != nil {
		rep.op(err)
		return
	}
	for i, c := range cases {
		body, err := jobBody(c)
		if err != nil {
			rep.op(err)
			continue
		}
		var rec *httptest.ResponseRecorder
		timed(tr, "server.servehttp_hit", i, probeReps, func() {
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", bytes.NewReader(body)))
		})
		var reply bindReply
		err = json.Unmarshal(rec.Body.Bytes(), &reply)
		if err == nil && (rec.Code != http.StatusOK || reply.Outcome != server.OutcomeOK || reply.Source != "store") {
			err = fmt.Errorf("server probe %s: status %d, outcome %q, source %q", c.name, rec.Code, reply.Outcome, reply.Source)
		}
		rep.op(err)
	}
	fromSpans(rep, tr, "server.servehttp_hit_us", "server.servehttp_hit", time.Microsecond)
	rep.layer["server.http_overhead_us"] = sample{rep.layer["server.servehttp_hit_us"].value -
		rep.layer["facade.store_hit_us"].value, rep.layer["server.servehttp_hit_us"].n}
}

// probeServed serves every case over loopback twice, cold then hit, for
// the workloads whose own window serves no requests, and reports the
// client latency outside the server's bind time per class.
func probeServed(cases []layerCase, rep *report) {
	lb, err := startLoopback(vliwbind.NewMemoryStore(0))
	if err != nil {
		rep.op(err)
		return
	}
	defer lb.close()
	var outside [2][]float64
	for _, c := range cases {
		body, err := jobBody(c)
		if err != nil {
			rep.op(err)
			continue
		}
		for k, want := range []string{"search", "store"} {
			t := time.Now()
			status, raw, err := lb.post(body)
			lat := ms(time.Since(t))
			var reply bindReply
			if err == nil {
				err = json.Unmarshal(raw, &reply)
			}
			if err == nil && (status != http.StatusOK || reply.Outcome != server.OutcomeOK || reply.Source != want) {
				err = fmt.Errorf("served probe %s: status %d, outcome %q, source %q, want ok from %q",
					c.name, status, reply.Outcome, reply.Source, want)
			}
			if err == nil && k == 0 {
				_, err = checkAnswer(answer{c.g, c.dp, reply.Binding, reply.L, reply.Moves})
			}
			rep.op(err)
			if err == nil {
				outside[1-k] = append(outside[1-k], lat-reply.ElapsedMS)
			}
		}
	}
	rep.layer["server.outside_bind_hit_ms"] = sample{median(outside[0]), len(outside[0])}
	rep.layer["server.outside_bind_cold_ms"] = sample{median(outside[1]), len(outside[1])}
}

// probeExplore runs one traced unit of the explore-sweep workload (bus
// and ring) and times the three pruning bounds on every design point.
func probeExplore(cfg config, tr *tracer, rep *report) {
	wl, err := setupExploreSweep(cfg)
	if err != nil {
		rep.op(err)
		return
	}
	ex := wl.(*exploreSweep)
	ex.window(0, tr)
	ex.checkRuns(rep)
	points, bound := 0, 0
	for _, run := range ex.runs {
		if run.res == nil {
			continue
		}
		for _, p := range run.res.Points {
			points++
			if !p.Pruned {
				bound++
			}
		}
	}
	for i, c := range ex.cases() {
		timed(tr, "explore.bound", i, probeReps, func() {
			optbind.LowerBoundClustered(c.g, c.dp)
			regpressure.MinPeak(c.g, c.dp.NumClusters())
			if !c.dp.MultiHop() {
				modulo.MII(modulo.BodyLoop(c.g), c.dp)
			}
		})
	}
	rep.layer["explore.points"] = sample{float64(points), len(ex.runs)}
	rep.layer["explore.points_bound"] = sample{float64(bound), len(ex.runs)}
	rep.layer["explore.prune_ratio"] = sample{float64(points-bound) / float64(max(points, 1)), points}
	fromSpans(rep, tr, "explore.bound_us", "explore.bound", time.Microsecond)
	fromSpans(rep, tr, "explore.point_bind_ms", "explore.point_bind", time.Millisecond)
}
