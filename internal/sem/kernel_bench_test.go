package sem

import (
	"fmt"
	"testing"
)

// benchAddKuCase times the per-element oracle of one prebuilt operator
// and reports ns/elem.
func benchAddKuCase(b *testing.B, op Operator) {
	u := make([]float64, op.NDof())
	BenchField(u)
	dst := make([]float64, op.NDof())
	elems := AllElements(op)
	var sc Scratch
	op.AddKuScratch(dst, u, elems, &sc) // warm scratch + page buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.AddKuScratch(dst, u, elems, &sc)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(len(elems))*1e9, "ns/elem")
}

// BenchmarkAddKuBatch measures the fused batched kernel on the
// 512-element sweep fixtures (the batched/*@512 rows cmd/kernelbench
// records in BENCH_kernels.json), next to the per-element oracle on the
// same workload.
func BenchmarkAddKuBatch(b *testing.B) {
	cases, err := KernelSweepOperators(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range cases {
		bk := tc.Op
		b.Run(fmt.Sprintf("%s/deg=4/oracle", tc.Name), func(b *testing.B) {
			benchAddKuCase(b, tc.Op)
		})
		b.Run(fmt.Sprintf("%s/deg=4/batched", tc.Name), func(b *testing.B) {
			u := make([]float64, bk.NDof())
			BenchField(u)
			dst := make([]float64, bk.NDof())
			plan := bk.NewBatchPlan(AllElements(bk))
			var bs BatchScratch
			bk.AddKuBatch(dst, u, plan, &bs) // warm arena + page buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.AddKuBatch(dst, u, plan, &bs)
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(len(plan.Elems()))*1e9, "ns/elem")
		})
	}
}
