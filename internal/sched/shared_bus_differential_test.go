// External test package: the five-binder sweep below needs the
// binders, which all depend on this package, plus ListScalarRef, which
// lives in this package's test files so no frozen copy of the scheduler
// ships in production code.
package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"vliwbind/internal/anneal"
	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/expt"
	"vliwbind/internal/kernels"
	"vliwbind/internal/mincut"
	"vliwbind/internal/pcc"
	"vliwbind/internal/sched"
)

// TestSharedBusMatchesScalarReference is the refactor's bit-identity
// proof at the experiment level: every schedule the five binders produce
// on shared-bus machines must be *deeply equal* to what the frozen
// pre-interconnect scalar-bus-pool scheduler (sched.ListScalarRef)
// derives for the same bound graph and binding — same starts, same
// units, same L, field for field. Run at parallelism 1 and 4 because the
// evaluation worker pool is the one place concurrency could sneak a
// different-but-equally-good schedule into a result.
func TestSharedBusMatchesScalarReference(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			t.Parallel()
			for _, r := range expt.BaselineRows() {
				k, err := kernels.ByName(r.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				g := k.Build()
				dp, err := r.Datapath()
				if err != nil {
					t.Fatal(err)
				}
				opts := bind.Options{Parallelism: par}
				for _, v := range []struct {
					algo string
					run  func() (*bind.Result, error)
				}{
					{"b-init", func() (*bind.Result, error) { return bind.Initial(g, dp, opts) }},
					{"b-iter", func() (*bind.Result, error) { return bind.Bind(g, dp, opts) }},
					{"pcc", func() (*bind.Result, error) { return pcc.Bind(g, dp, pcc.Options{}) }},
					{"anneal", func() (*bind.Result, error) { return anneal.Bind(g, dp, anneal.Options{Seed: 1}) }},
					{"mincut", func() (*bind.Result, error) { return mincut.Bind(g, dp, mincut.Options{}) }},
				} {
					res, err := v.run()
					if err != nil {
						t.Fatalf("%s on %s: %v", v.algo, r.Name(), err)
					}
					if err := audit.Audit(res); err != nil {
						t.Fatalf("%s on %s failed audit: %v", v.algo, r.Name(), err)
					}
					ref, err := sched.ListScalarRef(res.Bound, dp, res.BoundBinding)
					if err != nil {
						t.Fatalf("%s on %s: scalar reference scheduler: %v", v.algo, r.Name(), err)
					}
					if !reflect.DeepEqual(ref, res.Schedule) {
						t.Errorf("%s on %s: route-aware schedule diverges from the scalar bus-pool reference\nref L=%d got L=%d",
							v.algo, r.Name(), ref.L, res.Schedule.L)
					}
				}
			}
		})
	}
}
