package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vliwbind"
	"vliwbind/internal/explore"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// explore-sweep: explore.Explore on DCT-DIT with 4 ALUs and 2 MULs in at
// most 3 clusters, once on the shared bus and once on the ring (one
// unit), with B-ITER, pruning on and two point workers. The seed picks
// which topology of each unit runs first.

const (
	sweepKernel   = "DCT-DIT"
	sweepALUs     = 4
	sweepMULs     = 2
	sweepClusters = 3
	sweepPar      = 2
)

var sweepTopos = []string{machine.TopoBus, machine.TopoRing}

// sweepRun is one exploration of one topology.
type sweepRun struct {
	topo    string
	res     *explore.Result
	err     error
	answers map[string]*answer // bound point spec → its bind answer
}

type exploreSweep struct {
	seed  int64
	g     *vliwbind.Graph
	runs  []sweepRun
	walls []time.Duration
	hits  []float64 // recertify latencies, ms
}

func setupExploreSweep(cfg config) (workload, error) {
	k, err := kernels.ByName(sweepKernel)
	if err != nil {
		return nil, err
	}
	w := &exploreSweep{seed: cfg.seed, g: k.Build()}
	// Set-up ends with one untimed warm-up unit, so the timed window
	// starts with the heap grown and the code paths warm.
	w.window(0, nil)
	w.runs, w.walls, w.hits = nil, nil, nil
	return w, nil
}

// sweep runs one exploration, recording every point's bind result for
// the check.
func (w *exploreSweep) sweep(topo string, tr *tracer, parent int) sweepRun {
	run := sweepRun{topo: topo, answers: map[string]*answer{}}
	var mu sync.Mutex
	bindPoint := func(ctx context.Context, g *vliwbind.Graph, dp *vliwbind.Datapath, opts vliwbind.Options) (*vliwbind.Result, error) {
		sp := tr.start("explore.point_bind", parent, 0)
		r, err := vliwbind.BindContext(ctx, g, dp, opts)
		tr.end(sp)
		if err == nil {
			a := answerOf(r)
			mu.Lock()
			run.answers[dp.String()] = &a
			mu.Unlock()
		}
		return r, err
	}
	sp := tr.start("explore.explore", parent, 0)
	run.res, run.err = explore.Explore(context.Background(), explore.Config{
		Graph: w.g, Kernel: sweepKernel,
		ALUs: sweepALUs, MULs: sweepMULs, MaxClusters: sweepClusters,
		Machine: machine.Config{Topology: topo},
		Bind:    bindPoint,
		Par:     sweepPar,
		Prune:   true,
	})
	tr.end(sp)
	return run
}

func (w *exploreSweep) window(d time.Duration, tr *tracer) (int, time.Duration) {
	start := time.Now()
	units := 0
	for units == 0 || time.Since(start) < d {
		first := int(splitmix(w.seed, int64(len(w.walls))) % 2)
		var wall time.Duration // the sweeps' own time, without the recertify hits
		for k := range sweepTopos {
			topo := sweepTopos[(first+k)%2]
			t0 := time.Now()
			sp := tr.start("sweep", 0, int64(len(w.runs)))
			run := w.sweep(topo, tr, sp)
			tr.end(sp)
			wall += time.Since(t0)
			w.runs = append(w.runs, run)
			if run.res == nil {
				continue
			}
			var answers []answer
			for _, p := range run.res.Points {
				if a := run.answers[p.Spec]; a != nil {
					answers = append(answers, *a)
				}
			}
			w.hits = append(w.hits, recertify(tr, answers, 2)...)
		}
		w.walls = append(w.walls, wall)
		units++
	}
	return units, time.Since(start)
}

// checkRuns checks every point of every run: bound points against their
// bind results, frontier membership against a brute-force recompute,
// and every run against the first run of its topology.
func (w *exploreSweep) checkRuns(rep *report) {
	ref := map[string][]explore.Point{}
	for _, run := range w.runs {
		if run.err != nil {
			rep.op(fmt.Errorf("explore %s: %w", run.topo, run.err))
			continue
		}
		if run.res.Expired || len(run.res.Points) == 0 {
			rep.op(fmt.Errorf("explore %s: incomplete sweep (%d points)", run.topo, len(run.res.Points)))
			continue
		}
		offFrontier := map[string]bool{}
		for _, s := range checkFrontier(run.res.Points) {
			offFrontier[s] = true
		}
		first, seen := ref[run.topo]
		if !seen {
			ref[run.topo] = run.res.Points
		} else if len(first) != len(run.res.Points) {
			rep.op(fmt.Errorf("explore %s: %d points, first sweep had %d", run.topo, len(run.res.Points), len(first)))
			continue
		}
		for i, p := range run.res.Points {
			var err error
			switch {
			case offFrontier[p.Spec]:
				err = fmt.Errorf("explore %s: point %s frontier flag %v disagrees with brute force", run.topo, p.Spec, p.Pareto)
			case p.Degraded:
				err = fmt.Errorf("explore %s: point %s degraded", run.topo, p.Spec)
			case !p.Pruned:
				err = checkPoint(p, run.answers[p.Spec])
			}
			if err == nil && seen {
				q := first[i]
				if p.Spec != q.Spec || p.Vector != q.Vector || p.Pruned != q.Pruned || p.Pareto != q.Pareto {
					err = fmt.Errorf("explore %s: point %s differs from the first sweep", run.topo, p.Spec)
				}
			}
			rep.op(err)
		}
	}
}

func (w *exploreSweep) finish(rep *report) {
	w.checkRuns(rep)
	var cold []float64
	perPoint := map[string][]float64{}
	points, bound, sumL, sumM := 0, 0, 0, 0
	firstOf := map[string]bool{}
	for _, run := range w.runs {
		if run.err != nil {
			continue
		}
		first := !firstOf[run.topo]
		firstOf[run.topo] = true
		for _, p := range run.res.Points {
			points++
			if p.Pruned {
				continue
			}
			t := float64(p.WallNs) / 1e6
			cold = append(cold, t)
			perPoint[run.topo+p.Spec] = append(perPoint[run.topo+p.Spec], t)
			if first {
				sumL += p.L
				sumM += p.Moves
				bound++
			}
		}
	}
	var pointMeans []float64
	for _, ts := range perPoint {
		pointMeans = append(pointMeans, sum(ts)/float64(len(ts)))
	}
	var walls []float64
	for _, d := range w.walls {
		walls = append(walls, d.Seconds())
	}
	rep.e2e["wall_s"] = sample{median(walls), len(walls)}
	rep.e2e["req_per_s"] = sample{float64(points) / sum(walls), points}
	rep.e2e["bind_geomean_ms"] = sample{geomean(pointMeans), len(cold)}
	rep.e2e["iter_sum_L"] = sample{float64(sumL), bound}
	rep.e2e["iter_sum_M"] = sample{float64(sumM), bound}
	rep.e2e["cold_p50_ms"] = sample{median(cold), len(cold)}
	rep.e2e["cold_p90_ms"] = sample{quantile(cold, 0.9), len(cold)}
	rep.e2e["hit_p50_ms"] = sample{median(w.hits), len(w.hits)}
	rep.e2e["hit_p99_ms"] = sample{quantile(w.hits, 0.99), len(w.hits)}
}

func (w *exploreSweep) cases() []layerCase {
	var out []layerCase
	for _, topo := range sweepTopos {
		for nc := 1; nc <= sweepClusters; nc++ {
			for _, spec := range explore.Clusterings(sweepALUs, sweepMULs, nc) {
				dp, err := machine.Parse(spec, machine.Config{Topology: topo})
				if err != nil || dp.CanRun(w.g) != nil {
					continue
				}
				out = append(out, layerCase{name: spec + "@" + topo, kernel: sweepKernel, g: w.g, dp: dp})
			}
		}
	}
	return out
}

func (w *exploreSweep) close() {}
