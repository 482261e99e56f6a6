// The plan-cache miss benchmark. A hit costs a fingerprint and a map lookup
// (internal/server's BenchmarkQueryHit measures it end to end through the
// handler), while a miss pays for full optimization — view matching over 1000
// registered views — so the gap is the per-request saving the cache buys.
package matview

import (
	"fmt"
	"testing"

	"matview/internal/harness"
	"matview/internal/server"
	"matview/internal/sqlparser"
)

// BenchmarkPlanCacheMiss measures the miss path under DDL churn: every
// lookup sees a newer catalog epoch, so the entry is invalidated and the
// query pays for full optimization against 1000 registered views before
// being re-cached. The gap to BenchmarkQueryHit is what a hit saves.
func BenchmarkPlanCacheMiss(b *testing.B) {
	h := getHarness(b)
	o, err := newBenchOptimizer(h, harness.Settings[0], 1000)
	if err != nil {
		b.Fatal(err)
	}
	queries := h.Queries()
	cache := server.NewPlanCache(2 * len(queries))
	sqls := make([]string, len(queries))
	for i := range queries {
		sqls[i] = fmt.Sprintf("select a, sum(b) as s from t%d where a = %d group by a", i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint64(i) // advancing epoch forces an invalidating miss
		key, err := sqlparser.Fingerprint(sqls[i%len(sqls)])
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := cache.Get(key, epoch); ok {
			b.Fatal("unexpected hit")
		}
		res, err := o.Optimize(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		cache.Put(key, epoch, &server.CachedPlan{Res: res})
	}
}
