// The join-and-aggregate plan benchmark: the cached plans of analytic_base's
// two join shapes, run straight on the engine.
package matview

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"matview/internal/exec"
	"matview/internal/server"
	"matview/internal/sqlparser"
	"matview/internal/tpch"
)

// BenchmarkAnalyticJoinPlans runs the plans the server caches for
// analytic_base's join3 and agg_join (bench/w_analytic.go's statements, with
// the constants fixed) on one worker, on a pinned snapshot of TPC-H SF 0.05,
// seed 1 — what the benchmark's exec.join3_w1_ms and exec.agg_join_w1_ms
// time. A CPU profile of it is what EXPERIMENTS.md splits into stages:
//
//	go test -run '^$' -bench AnalyticJoinPlans/agg_join -benchtime 300x -cpuprofile cpu.out .
func BenchmarkAnalyticJoinPlans(b *testing.B) {
	db, err := tpch.NewDatabase(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(db, server.DefaultConfig())
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	snap := db.Snapshot()
	defer snap.Release()
	for _, shape := range []struct{ name, sql string }{
		{"join3", "select o_orderkey, o_orderdate, sum(l_extendedprice) as revenue, count_big(*) as cnt from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and c_mktsegment = 'BUILDING' and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' group by o_orderkey, o_orderdate"},
		{"agg_join", "select n_name, sum(l_extendedprice) as revenue, count_big(*) as cnt from lineitem, orders, customer, nation where l_orderkey = o_orderkey and o_custkey = c_custkey and c_nationkey = n_nationkey and l_shipdate >= date '1995-01-15' group by n_name"},
	} {
		body, _ := json.Marshal(server.QueryRequest{SQL: shape.sql})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		key, err := sqlparser.Fingerprint(shape.sql)
		cp, ok := srv.Cache().Get(key, srv.Optimizer().CatalogEpoch())
		if rec.Code != http.StatusOK || err != nil || !ok {
			b.Fatalf("%s: status %d, %v, cached %v: %s", shape.name, rec.Code, err, ok, rec.Body)
		}
		b.Run(shape.name, func(b *testing.B) {
			e := &exec.Engine{Workers: 1}
			for range b.N {
				if _, err := e.Run(snap, cp.Res.Plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/run")
		})
	}
}
