// Command perfbench is vliwbind's benchmark: three workloads (table-regen,
// serve-mix, explore-sweep), end-to-end metrics from an untraced run and
// per-layer metrics from a traced one, every answer checked out of band
// after the timed window. See README.md for the metric definitions.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vliwbind"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec describes one reported metric. Moves names the end-to-end
// metric(s) a per-layer metric is expected to move. Directions and
// regression bounds live in BENCHMARK.json.
type metricSpec struct {
	name, unit, moves string
}

// endToEnd lists the metrics of an untraced run (--trace 0). Every
// workload reports every one of them; README.md gives each one's
// meaning per workload.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "req_per_s", unit: "1/s"},
	{name: "bind_geomean_ms", unit: "ms"},
	{name: "iter_sum_L", unit: "cycles"},
	{name: "iter_sum_M", unit: "moves"},
	{name: "hit_p50_ms", unit: "ms"},
	{name: "cold_p50_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

// tails are the latency tails of an untraced run. They are printed with
// their sample counts but left out of the result line: from run to run
// they move by more than any regression bound the benchmark could set.
var tails = []metricSpec{
	{name: "hit_p99_ms", unit: "ms"},
	{name: "cold_p90_ms", unit: "ms"},
}

// perLayer lists the metrics of a traced run (--trace 1).
var perLayer = []metricSpec{
	{name: "pcc.bind_ms", unit: "ms", moves: "table-regen wall_s"},
	{name: "bind.binit_ms", unit: "ms", moves: "table-regen wall_s, bind_geomean_ms"},
	{name: "bind.sweep_configs", unit: "count", moves: "table-regen wall_s, bind_geomean_ms"},
	{name: "bind.biter_ms", unit: "ms", moves: "table-regen bind_geomean_ms; serve-mix cold_p50_ms"},
	{name: "bind.iter_rounds", unit: "count", moves: "table-regen bind_geomean_ms; serve-mix cold_p50_ms"},
	{name: "bind.round_us", unit: "us", moves: "table-regen bind_geomean_ms; serve-mix cold_p50_ms"},
	{name: "bind.evals", unit: "count", moves: "table-regen bind_geomean_ms; serve-mix cold_p50_ms"},
	{name: "bind.accept_ratio", unit: "ratio", moves: "table-regen bind_geomean_ms; serve-mix cold_p50_ms"},
	{name: "problem.new_us", unit: "us", moves: "table-regen bind_geomean_ms; explore-sweep wall_s"},
	{name: "problem.evaluate_us", unit: "us", moves: "table-regen bind_geomean_ms; explore-sweep wall_s"},
	{name: "problem.evaluate_allocs", unit: "count", moves: "table-regen bind_geomean_ms; explore-sweep wall_s"},
	{name: "problem.evaluate_ring_us", unit: "us", moves: "explore-sweep wall_s"},
	{name: "bind.evaluate_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "sched.list_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "audit.total_us", unit: "us", moves: "serve-mix hit_p50_ms, hit_p99_ms; table-regen wall_s ~0 (about 1%)"},
	{name: "audit.allocs", unit: "count", moves: "serve-mix hit_p50_ms, hit_p99_ms"},
	{name: "audit.dfg_validate_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "audit.buildbound_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "audit.sched_check_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "audit.vliwsim_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "audit.codegen_allocate_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "audit.alloc_check_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "store.canonicalize_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "store.result_key_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "store.lookup_ns", unit: "ns", moves: "serve-mix hit_p50_ms"},
	{name: "store.put_us", unit: "us", moves: "serve-mix cold_p50_ms"},
	{name: "facade.store_hit_us", unit: "us", moves: "serve-mix hit_p50_ms"},
	{name: "facade.store_hit_allocs", unit: "count", moves: "serve-mix hit_p50_ms"},
	{name: "textio.parse_us", unit: "us", moves: "serve-mix cold_p50_ms"},
	{name: "server.servehttp_hit_us", unit: "us", moves: "serve-mix hit_p50_ms, req_per_s"},
	{name: "server.http_overhead_us", unit: "us", moves: "serve-mix hit_p50_ms, req_per_s"},
	{name: "server.outside_bind_hit_ms", unit: "ms", moves: "serve-mix hit_p50_ms, req_per_s"},
	{name: "server.outside_bind_cold_ms", unit: "ms", moves: "serve-mix cold_p50_ms, req_per_s"},
	{name: "explore.points", unit: "count", moves: "explore-sweep wall_s"},
	{name: "explore.points_bound", unit: "count", moves: "explore-sweep wall_s"},
	{name: "explore.prune_ratio", unit: "ratio", moves: "explore-sweep wall_s"},
	{name: "explore.bound_us", unit: "us", moves: "explore-sweep wall_s"},
	{name: "explore.point_bind_ms", unit: "ms", moves: "explore-sweep wall_s"},
	{name: "unattributed_ratio", unit: "ratio", moves: "none: time no layer accounts for"},
	{name: "trace_overhead_ratio", unit: "ratio", moves: "none: traced ÷ untraced time per op"},
}

// sample is a metric value with the number of measurements behind it.
type sample struct {
	value float64
	n     int
}

// report collects one run's metrics and check verdicts.
type report struct {
	e2e, layer        map[string]sample
	attempted, failed int
	problems          []string
	self              map[string]float64 // layer self time, ms
}

func newReport() *report {
	return &report{e2e: map[string]sample{}, layer: map[string]sample{}}
}

// op records one checked operation.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// workload is one benchmark workload after set-up.
type workload interface {
	// window runs the workload for at least d and at least one whole
	// unit of work (batch, sweep, request), returning the units done
	// and the time they took. tr is nil for an untraced window.
	window(d time.Duration, tr *tracer) (units int, elapsed time.Duration)
	// finish checks every answer recorded so far and computes the
	// end-to-end metrics (and any per-layer metric only the workload's
	// own window can give) into rep.
	finish(rep *report)
	// cases are the workload's (graph, datapath) inputs, on which the
	// traced run times each layer.
	cases() []layerCase
	close()
}

// layerCase is one workload input.
type layerCase struct {
	name   string
	kernel string // paper kernel name, "" for a generated graph
	g      *vliwbind.Graph
	dp     *vliwbind.Datapath
}

// workloadDef binds a workload name to its set-up.
type workloadDef struct {
	name string
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps int
	// root is the structural span that brackets one unit of work.
	root  string
	setup func(cfg config) (workload, error)
}

// table-regen's set-up takes about 2 ms, so it repeats often enough for
// a steady median; the others' take a second or more.
var workloads = []workloadDef{
	{name: "table-regen", setupReps: 101, root: "batch", setup: setupTableRegen},
	{name: "serve-mix", setupReps: 3, root: "client", setup: setupServeMix},
	{name: "explore-sweep", setupReps: 3, root: "sweep", setup: setupExploreSweep},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workdir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: table-regen, serve-mix or explore-sweep")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.traced = trace == 1
	rep, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runBench sets the workload up (several times, for setup_s), runs its
// window(s), the traced layer probes if asked, and the checks.
func runBench(cfg config) (*report, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()
	var w workload
	var setups []float64
	for i := 0; i < def.setupReps; i++ {
		t0 := time.Now()
		next, err := def.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			w.close()
		}
		w = next
	}
	defer w.close()
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}

	if !cfg.traced {
		w.window(cfg.window, nil)
		w.finish(rep)
	} else {
		uUnits, uTime := w.window(cfg.window/2, nil)
		tr := newTracer()
		tUnits, tTime := w.window(cfg.window/2, tr)
		overhead := (float64(tTime) / float64(tUnits)) / (float64(uTime) / float64(uUnits))
		rep.layer["trace_overhead_ratio"] = sample{overhead, uUnits + tUnits}
		rep.layer["unattributed_ratio"] = sample{tr.unattributed(def.root), tUnits}
		w.finish(rep)
		probeLayers(cfg, w, tr, rep)
		rep.self = map[string]float64{}
		for name, ns := range tr.selfTimes() {
			rep.self[name] = ns / 1e6
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	rep.e2e["peak_rss_mb"] = sample{peakRSSMB(), 1}
	return rep, nil
}

// printReport writes one line per metric (name, value, unit, sample
// count, and for per-layer metrics the end-to-end metric it should
// move), the check verdict, and finally the JSON result line.
func printReport(w io.Writer, cfg config, rep *report) error {
	specs, got := endToEnd, rep.e2e
	if cfg.traced {
		specs, got = perLayer, rep.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	var missing []string
	for _, s := range specs {
		v, ok := got[s.name]
		if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			missing = append(missing, s.name)
			continue
		}
		line := fmt.Sprintf("%-28s %14.6g %-7s n=%d", s.name, v.value, s.unit, v.n)
		if s.moves != "" {
			line += "  moves: " + s.moves
		}
		fmt.Fprintln(w, line)
		out[s.name] = metric{v.value, s.unit}
	}
	if !cfg.traced {
		for _, s := range tails {
			if v, ok := got[s.name]; ok {
				fmt.Fprintf(w, "%-28s %14.6g %-7s n=%d  (not gated)\n", s.name, v.value, s.unit, v.n)
			}
		}
	}
	if len(rep.self) > 0 {
		names := make([]string, 0, len(rep.self))
		for n := range rep.self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "self %-34s %12.3f ms\n", n, rep.self[n])
		}
	}
	failRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "%-28s %14.6g %-7s n=%d\n", "fail_ratio", failRatio, "ratio", rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	verdict := "PASS"
	if rep.failed > 0 || rep.attempted == 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "check: %s (%d of %d operations failed)\n", verdict, rep.failed, rep.attempted)
	if len(missing) > 0 {
		return errors.New("metrics not measured: " + fmt.Sprint(missing))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{verdict == "PASS", rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
