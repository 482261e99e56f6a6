package exec_test

import (
	"strings"
	"testing"

	"matview/internal/exec"
	"matview/internal/opt"
	"matview/internal/sqlparser"
	"matview/internal/tpch"
)

// TestJoinCountersPinned pins what exec.ReadScanStats reports for the
// benchmark's two join shapes (bench/w_analytic.go), planned the way the
// server plans them, on the SF 0.01 database: bench/ derives
// exec.rows_probed_per_op, exec.probe_hit_frac, exec.rows_gathered_per_op and
// exec.agg_join_ns_per_probed_row from these counters, so what they count
// must not move when the join or the aggregation under them is rewritten —
// and must not depend on the number of workers that did the counting.
func TestJoinCountersPinned(t *testing.T) {
	db, err := tpch.NewDatabase(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.NewOptimizer(db.Catalog, opt.DefaultOptions())
	for _, tc := range []struct {
		name, sql, shape string
		want             exec.ScanStats
	}{
		{"join3",
			"select o_orderkey, o_orderdate, sum(l_extendedprice) as revenue, count_big(*) as cnt from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and c_mktsegment = 'BUILDING' and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' group by o_orderkey, o_orderdate",
			"HashAgg HashJoin HashJoin TableScan TableScan TableScan",
			exec.ScanStats{BlocksScanned: 76, RowsProbed: 32761, RowsMatched: 3435}},
		{"agg_join",
			"select n_name, sum(l_extendedprice) as revenue, count_big(*) as cnt from lineitem, orders, customer, nation where l_orderkey = o_orderkey and o_custkey = c_custkey and c_nationkey = n_nationkey and l_shipdate >= date '1995-02-01' group by n_name",
			"HashAgg HashJoin HashAgg HashJoin HashJoin TableScan TableScan TableScan TableScan",
			exec.ScanStats{BlocksScanned: 77, RowsProbed: 48502, RowsMatched: 48502}},
	} {
		q, err := sqlparser.ParseQuery(db.Catalog, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		var shape []string
		for _, line := range strings.Split(exec.Explain(res.Plan), "\n")[1:] { // below the top Project
			if op, _, _ := strings.Cut(strings.TrimSpace(line), "("); op != "" {
				shape = append(shape, op)
			}
		}
		if got := strings.Join(shape, " "); got != tc.shape {
			t.Fatalf("%s: the optimizer now plans %q, not the %q these counts were pinned on", tc.name, got, tc.shape)
		}
		for _, workers := range []int{1, 4} {
			before := exec.ReadScanStats()
			if _, err := (&exec.Engine{Workers: workers}).Run(db, res.Plan); err != nil {
				t.Fatal(err)
			}
			after := exec.ReadScanStats()
			got := exec.ScanStats{
				BlocksScanned: after.BlocksScanned - before.BlocksScanned,
				BlocksSkipped: after.BlocksSkipped - before.BlocksSkipped,
				RowsProbed:    after.RowsProbed - before.RowsProbed,
				RowsMatched:   after.RowsMatched - before.RowsMatched,
				RowsGathered:  after.RowsGathered - before.RowsGathered,
			}
			if got != tc.want {
				t.Errorf("%s on %d worker(s): counters %+v, want %+v", tc.name, workers, got, tc.want)
			}
		}
	}
}
