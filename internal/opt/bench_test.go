package opt_test

import (
	"fmt"
	"testing"

	"matview/internal/opt"
	"matview/internal/spjg"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// paperSetup is the set-up of bench/'s optimize_1000v: TPC-H SF 0.5
// statistics, the first n valid views and queries of the §5 generator
// (seed 1), registered under opt.DefaultOptions().
func paperSetup(tb testing.TB, n int) (*opt.Optimizer, []*spjg.Query) {
	tb.Helper()
	cat := tpch.NewCatalog(0.5)
	gen := workload.New(cat, workload.DefaultConfig(1))
	views := firstValid(n, gen.View, (*spjg.Query).ValidateAsView)
	queries := firstValid(n, gen.Query, (*spjg.Query).Validate)
	o := opt.NewOptimizer(cat, opt.DefaultOptions())
	for i, v := range views {
		if _, err := o.RegisterView(fmt.Sprintf("mv%04d", i), v); err != nil {
			tb.Fatalf("registering view %d: %v", i, err)
		}
	}
	return o, queries
}

// BenchmarkOptimize1000 is one Optimize call against 1000 views, averaged
// over the 1000 queries: the layer benchmark behind optimize_1000v's
// ops_per_s and, on a plan-cache miss, server.plan_miss_us.
func BenchmarkOptimize1000(b *testing.B) {
	o, queries := paperSetup(b, 1000)
	var stats opt.QueryStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := o.Optimize(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		stats.Add(res.Stats)
	}
	b.ReportMetric(float64(stats.Invocations)/float64(b.N), "invocations/op")
}
