package bind_test

// Determinism tests for the parallel evaluation engine: the engine's
// contract is that Options.Parallelism changes only wall-clock time,
// never results. These tests compare full Bind runs at Parallelism 1
// (an in-order loop) against Parallelism 8 (the worker pool; both run
// the memoization cache) and require identical latency, move count,
// AND identical binding vectors — not just equal quality.
// The package's `make race` target runs them under the race detector,
// which exercises the pool/cache synchronization.

import (
	"fmt"
	"testing"

	"vliwbind/internal/bind"
	"vliwbind/internal/faultinject"
	"vliwbind/internal/kernels"
	"vliwbind/internal/leakcheck"
	"vliwbind/internal/machine"
)

// sampleDatapaths are the machines every kernel is cross-checked on: the
// paper's standard two-cluster machine and a heterogeneous three-cluster
// one that forces move-heavy bindings.
var sampleDatapaths = []string{"[2,1|2,1]", "[2,1|1,1|1,1]"}

func bindAt(t *testing.T, g *kernels.Kernel, dpSpec string, par int, stats *bind.CacheStats) *bind.Result {
	t.Helper()
	dp, err := machine.Parse(dpSpec, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := bind.Options{Parallelism: par, Stats: stats}
	if g.NumOps > 50 {
		// The big DCT kernels take seconds per Bind; a bounded number of
		// improvement rounds keeps the full matrix race-detector-friendly
		// while still exercising the sweep, both passes, and the cache.
		opts.MaxIterations = 4
	}
	res, err := bind.Bind(g.Build(), dp, opts)
	if err != nil {
		t.Fatalf("%s on %s (par=%d): %v", g.Name, dpSpec, par, err)
	}
	return res
}

func TestParallelismIsInvisible(t *testing.T) {
	// Registered on the parent: its cleanup runs after every parallel
	// subtest has finished, when all pool workers must have joined.
	leakcheck.Check(t)
	for _, k := range kernels.All() {
		k := k
		for _, dpSpec := range sampleDatapaths {
			dpSpec := dpSpec
			t.Run(fmt.Sprintf("%s/%s", k.Name, dpSpec), func(t *testing.T) {
				t.Parallel()
				seq := bindAt(t, &k, dpSpec, 1, nil)
				var stats bind.CacheStats
				par := bindAt(t, &k, dpSpec, 8, &stats)
				if seq.L() != par.L() || seq.Moves() != par.Moves() {
					t.Fatalf("par=8 diverged: (L=%d, M=%d) vs sequential (L=%d, M=%d)",
						par.L(), par.Moves(), seq.L(), seq.Moves())
				}
				for i := range seq.Binding {
					if seq.Binding[i] != par.Binding[i] {
						t.Fatalf("binding vectors diverge at node %d: %d vs %d",
							i, par.Binding[i], seq.Binding[i])
					}
				}
				if stats.Misses() == 0 {
					t.Error("parallel run recorded no cache misses; is the engine engaged?")
				}
			})
		}
	}
}

// TestCacheCountsHits pins down that the memoization cache actually
// serves repeat candidates: a full two-phase Bind revisits perturbations
// across rounds and across the Q_U→Q_M passes, so a healthy cache must
// record hits, and hits+misses must cover at least the distinct
// evaluations the sequential path would have performed.
func TestCacheCountsHits(t *testing.T) {
	leakcheck.Check(t)
	k, err := kernels.ByName("ARF")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	dp, err := machine.Parse("[2,1|2,1]", machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var stats bind.CacheStats
	if _, err := bind.Bind(g, dp, bind.Options{Parallelism: 4, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Misses() == 0 {
		t.Fatal("no misses recorded: cache counters not wired up")
	}
	if stats.Hits() == 0 {
		t.Error("no hits recorded: B-ITER is known to revisit candidates, cache never matched")
	}
	t.Logf("cache: %d misses, %d hits", stats.Misses(), stats.Hits())
}

// TestSequentialPathUsesCache verifies the memo cache is one code path
// at every Parallelism: at Parallelism 1 it serves repeat candidates,
// renders exactly one verdict per evaluation, and leaves the binding
// vector identical to a Parallelism 4 run.
func TestSequentialPathUsesCache(t *testing.T) {
	k, err := kernels.ByName("EWF")
	if err != nil {
		t.Fatal(err)
	}
	g := k.Build()
	dp, err := machine.Parse("[2,1|1,1]", machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var stats bind.CacheStats
	counter := faultinject.New() // no faults: pure hit counter
	seq, err := bind.Bind(g, dp, bind.Options{Parallelism: 1, Stats: &stats, Hook: counter.At})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits() == 0 {
		t.Error("Parallelism 1 recorded no cache hits; is the cache engaged?")
	}
	if got, want := stats.Hits()+stats.Misses(), counter.Count(bind.HookEvaluate); got != want {
		t.Errorf("hits+misses = %d, want %d (one verdict per evaluation)", got, want)
	}
	par, err := bind.Bind(g, dp, bind.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Binding {
		if seq.Binding[i] != par.Binding[i] {
			t.Fatalf("binding vectors diverge at node %d: par=1 %d vs par=4 %d",
				i, seq.Binding[i], par.Binding[i])
		}
	}
}
