package main

import (
	"fmt"
	"math/rand"
	"time"

	"vliwbind"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/expt"
	"vliwbind/internal/kernels"
	"vliwbind/internal/pcc"
)

// table-regen: the vliwtab regeneration. Each batch runs every Table 1
// and Table 2 row through PCC, B-INIT and B-ITER at Parallelism 1, and
// audits the three results, exactly as expt.RunWith does; the seed only
// shuffles the row order of each batch.

// rowRun is one row's outcome in one batch: the three binders' answers
// (nil where a binder failed) and any error the row met.
type rowRun struct {
	row      int
	answers  []answer // PCC, B-INIT, B-ITER
	errs     []error
	iterTime time.Duration
}

type tableRegen struct {
	rows    []layerCase
	rng     *rand.Rand
	batches [][]rowRun
	walls   []time.Duration
	hits    []float64 // recertify latencies, ms
}

func setupTableRegen(cfg config) (workload, error) {
	w := &tableRegen{rng: rand.New(rand.NewSource(cfg.seed))}
	for _, r := range append(expt.Table1(), expt.Table2()...) {
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			return nil, err
		}
		dp, err := r.Datapath()
		if err != nil {
			return nil, err
		}
		w.rows = append(w.rows, layerCase{name: r.Name(), kernel: r.Kernel, g: k.Build(), dp: dp})
	}
	return w, nil
}

func (w *tableRegen) window(d time.Duration, tr *tracer) (int, time.Duration) {
	opts := bind.Options{Parallelism: 1}
	start := time.Now()
	units := 0
	for units == 0 || time.Since(start) < d {
		batch := make([]rowRun, 0, len(w.rows))
		var wall time.Duration // the rows' own time, without the recertify hits
		b := tr.start("batch", 0, int64(len(w.batches)))
		for _, i := range w.rng.Perm(len(w.rows)) {
			row := w.rows[i]
			t0 := time.Now()
			rs := tr.start("row", b, int64(i))
			rr := rowRun{row: i}
			// keep audits each result as expt.RunWith does and keeps its
			// answer for the out-of-band check.
			keep := func(algo string, res *vliwbind.Result, err error) {
				if err == nil {
					sp := tr.start("audit.audit", rs, int64(i))
					err = audit.Audit(res)
					tr.end(sp)
				}
				if err != nil {
					rr.errs = append(rr.errs, fmt.Errorf("%s %s: %w", row.name, algo, err))
					return
				}
				rr.answers = append(rr.answers, answerOf(res))
			}
			sp := tr.start("pcc.bind", rs, int64(i))
			pres, perr := pcc.Bind(row.g, row.dp, pcc.Options{})
			tr.end(sp)

			sp = tr.start("bind.initial", rs, int64(i))
			ires, ierr := bind.Initial(row.g, row.dp, opts)
			tr.end(sp)

			sp = tr.start("bind.bind", rs, int64(i))
			t := time.Now()
			bres, berr := bind.Bind(row.g, row.dp, opts)
			rr.iterTime = time.Since(t)
			tr.end(sp)

			keep("pcc", pres, perr)
			keep("b-init", ires, ierr)
			keep("b-iter", bres, berr)
			tr.end(rs)
			wall += time.Since(t0)
			w.hits = append(w.hits, recertify(tr, rr.answers, 3)...)
			batch = append(batch, rr)
		}
		tr.end(b)
		w.walls = append(w.walls, wall)
		w.batches = append(w.batches, batch)
		units++
	}
	return units, time.Since(start)
}

func (w *tableRegen) finish(rep *report) {
	var binds float64
	perRow := make([][]float64, len(w.rows))
	var cold []float64
	ref := make([]*answer, len(w.rows)) // each row's first B-ITER answer
	for _, batch := range w.batches {
		for _, rr := range batch {
			binds += 3
			for _, e := range rr.errs {
				rep.op(e)
			}
			for _, a := range rr.answers {
				_, err := checkAnswer(a)
				rep.op(err)
			}
			if len(rr.errs) > 0 {
				continue
			}
			iter := rr.answers[2]
			if ref[rr.row] == nil {
				ref[rr.row] = &iter
			} else {
				rep.op(checkSame(w.rows[rr.row].name+" b-iter", iter, *ref[rr.row]))
			}
			t := ms(rr.iterTime)
			perRow[rr.row] = append(perRow[rr.row], t)
			cold = append(cold, t)
		}
	}
	var rowMeans []float64
	sumL, sumM := 0, 0
	for i, a := range ref {
		if a != nil {
			rowMeans = append(rowMeans, sum(perRow[i])/float64(len(perRow[i])))
			sumL += a.l
			sumM += a.m
		}
	}
	var walls []float64
	for _, d := range w.walls {
		walls = append(walls, d.Seconds())
	}
	rep.e2e["wall_s"] = sample{median(walls), len(walls)}
	rep.e2e["req_per_s"] = sample{binds / sum(walls), int(binds)}
	rep.e2e["bind_geomean_ms"] = sample{geomean(rowMeans), len(cold)}
	rep.e2e["iter_sum_L"] = sample{float64(sumL), len(rowMeans)}
	rep.e2e["iter_sum_M"] = sample{float64(sumM), len(rowMeans)}
	rep.e2e["cold_p50_ms"] = sample{median(cold), len(cold)}
	rep.e2e["cold_p90_ms"] = sample{quantile(cold, 0.9), len(cold)}
	rep.e2e["hit_p50_ms"] = sample{median(w.hits), len(w.hits)}
	rep.e2e["hit_p99_ms"] = sample{quantile(w.hits, 0.99), len(w.hits)}
}

// recertify re-derives and certifies known answers, the work a store
// hit does besides its lookup, timing each one (ms): the hit operation
// of the workloads that have no store. It runs right after each row or
// sweep, so its samples spread over the window as the cold work does. The
// verdict on each answer comes from checkAnswer after the window; this
// repeats its core for timing only.
func recertify(tr *tracer, answers []answer, passes int) []float64 {
	var out []float64
	for k := 0; k < passes; k++ {
		for i, a := range answers {
			sp := tr.start("facade.recertify", 0, int64(i))
			t := time.Now()
			if res, err := vliwbind.EvaluateBinding(a.g, a.dp, a.binding); err == nil {
				vliwbind.AuditResult(res)
			}
			out = append(out, ms(time.Since(t)))
			tr.end(sp)
		}
	}
	return out
}

func (w *tableRegen) cases() []layerCase { return w.rows }

func (w *tableRegen) close() {}
