package bind

import (
	"testing"

	"vliwbind/internal/kernels"
	"vliwbind/internal/machine"
)

// The B-ITER benchmarks time the complete two-phase binding of the
// largest kernel (DCT-DIT-2, 96 ops, on a dense three-cluster machine)
// and of EWF (a short, serialized schedule on two clusters).
// Parallelism is pinned to 1 so the numbers measure evaluation work,
// not pool scheduling. The end-to-end B-ITER figure the project gates
// on is the perfbench table-regen workload; these stay under their
// original names so BENCH_pr6.json remains comparable.
func benchBind(b *testing.B, kernel, mach string) {
	b.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		b.Fatal(err)
	}
	g := k.Build()
	dp := machine.MustParse(mach, machine.Config{})
	opts := Options{Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Bind(g, dp, opts)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.L()
	}
}

func BenchmarkBITERFull(b *testing.B) { benchBind(b, "DCT-DIT-2", "[3,1|2,2|1,3]") }

func BenchmarkBITERFullEWF(b *testing.B) { benchBind(b, "EWF", "[2,1|2,1]") }
