package bind

import (
	"encoding/hex"
	"testing"

	"vliwbind/internal/dfg"
	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
	"vliwbind/internal/obs"
)

// perturbationsWithRepeats is the pair enumeration perturbations used
// before it deduplicated: a pair linked by an edge and by common
// consumers is emitted once per link. Kept as the reference the
// deduplicated enumeration is checked against. The move-free fallback
// never emitted pairs, so it defers to perturbations.
func perturbationsWithRepeats(g *dfg.Graph, dp *machine.Datapath, bn []int) []candidate {
	bops := boundaryOps(g, bn)
	if len(bops) == 0 {
		return perturbations(g, dp, bn, Options{})
	}
	isBoundary := make(map[int]bool, len(bops))
	for _, v := range bops {
		isBoundary[v.ID()] = true
	}
	var cands []candidate
	neigh := make(map[int][]int, len(bops))
	for _, v := range bops {
		nc := neighborClusters(dp, v, bn)
		neigh[v.ID()] = nc
		for _, d := range nc {
			cands = append(cands, candidate{ids: []int{v.ID()}, clusters: []int{d}})
		}
	}
	addPair := func(v, w *dfg.Node) {
		if v.ID() >= w.ID() || !isBoundary[v.ID()] || !isBoundary[w.ID()] {
			return
		}
		for _, dv := range neigh[v.ID()] {
			for _, dw := range neigh[w.ID()] {
				cands = append(cands, candidate{ids: []int{v.ID(), w.ID()}, clusters: []int{dv, dw}})
			}
		}
	}
	for _, v := range bops {
		for _, w := range v.Succs() {
			addPair(v, w)
			addPair(w, v)
		}
		for _, u := range v.Succs() {
			for _, w := range u.Preds() {
				if w != v {
					addPair(v, w)
					addPair(w, v)
				}
			}
		}
	}
	return cands
}

// candidateKeys applies each candidate to bn and returns the resulting
// bindings' keys in enumeration order.
func candidateKeys(bn []int, cands []candidate) []string {
	keys := make([]string, len(cands))
	for i, cand := range cands {
		p := append([]int(nil), bn...)
		for j, id := range cand.ids {
			p[id] = cand.clusters[j]
		}
		keys[i] = bindingKey(p)
	}
	return keys
}

// TestPerturbationsEmitEachBindingOnce walks every binding a full Bind
// visits — each B-INIT seed and each accepted B-ITER move — on every
// table kernel and checks the round enumerated from it: no two
// candidates share a bindingKey, and the candidate list is exactly the
// old enumeration with later repeats dropped. A repeat scores the same
// record as its first occurrence, so the reduction's first-of-equals
// pick, and with it every Bind result, is unchanged.
func TestPerturbationsEmitEachBindingOnce(t *testing.T) {
	for _, k := range kernels.All() {
		for _, spec := range []string{"[2,1|2,1]", "[1,1|1,1|1,1]"} {
			g := k.Build()
			dp := machine.MustParse(spec, machine.Config{})
			var visited []string
			rec := obs.Func(func(e obs.Event) {
				if e.Type == obs.EvSweepSeed || e.Type == obs.EvIterAccept {
					visited = append(visited, e.Key)
				}
			})
			opts := Options{Parallelism: 1, Observer: rec}
			if k.NumOps > 50 {
				// As in parallel_test.go: the big DCT kernels take
				// seconds per Bind under the race detector, and a few
				// rounds of each pass already walk their enumeration.
				opts.MaxIterations = 4
			}
			if _, err := Bind(g, dp, opts); err != nil {
				t.Fatalf("%s on %s: %v", k.Name, spec, err)
			}
			repeats := 0
			for _, hx := range visited {
				raw, err := hex.DecodeString(hx)
				if err != nil {
					t.Fatal(err)
				}
				bn := make([]int, len(raw))
				for i, b := range raw {
					bn[i] = int(b) - 1
				}
				got := candidateKeys(bn, perturbations(g, dp, bn, Options{}))
				ref := candidateKeys(bn, perturbationsWithRepeats(g, dp, bn))
				var want []string
				first := make(map[string]bool)
				for _, key := range ref {
					if first[key] {
						repeats++
						continue
					}
					first[key] = true
					want = append(want, key)
				}
				if len(got) != len(want) {
					t.Fatalf("%s on %s: %d candidates, want %d", k.Name, spec, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s on %s: candidate %d is %x, want %x (first occurrence order)",
							k.Name, spec, i, got[i], want[i])
					}
				}
			}
			if len(visited) == 0 {
				t.Fatalf("%s on %s: no binding visited", k.Name, spec)
			}
			t.Logf("%s on %s: %d bindings visited, %d repeats dropped", k.Name, spec, len(visited), repeats)
		}
	}
}
