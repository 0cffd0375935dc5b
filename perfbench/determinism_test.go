package main

import (
	"testing"
	"time"
)

// TestCountsRepeatExactly runs every workload's traced run twice on one
// seed: the exact counts must repeat and no operation may fail.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			var reps [2]*report
			for k := range reps {
				rep, err := runBench(config{workload: def.name, seed: 7, window: 3 * time.Second,
					traced: true, workdir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Errorf("run %d: %d of %d operations failed: %v", k, rep.failed, rep.attempted, rep.problems)
				}
				reps[k] = rep
			}
			for _, m := range []string{"iter_sum_L", "iter_sum_M"} {
				if a, b := reps[0].e2e[m].value, reps[1].e2e[m].value; a != b || a == 0 {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
			for _, m := range []string{"bind.evals", "bind.iter_rounds", "explore.points_bound"} {
				if a, b := reps[0].layer[m].value, reps[1].layer[m].value; a != b || a == 0 {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
		})
	}
}
