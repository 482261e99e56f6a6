package exec_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// The BenchmarkExec* suite measures raw plan execution — no optimizer, no
// parser — on TPC-H data, comparing the seed row-at-a-time reference
// evaluator against the batched engine at several worker counts. The scale
// factor defaults to 0.5 (the paper's evaluation scale); set EXEC_BENCH_SF to
// run quicker sanity passes (CI smoke uses -benchtime=1x, where generation
// dominates anyway).
var execBench struct {
	once sync.Once
	db   *storage.Database
	err  error
}

func execBenchDB(b *testing.B) *storage.Database {
	b.Helper()
	execBench.once.Do(func() {
		sf := 0.5
		if s := os.Getenv("EXEC_BENCH_SF"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				sf = v
			}
		}
		execBench.db, execBench.err = tpch.NewDatabase(sf, 7)
	})
	if execBench.err != nil {
		b.Fatal(execBench.err)
	}
	return execBench.db
}

// scanPlan projects two lineitem columns — pure per-row expression
// throughput over the full table.
func scanPlan(db *storage.Database) exec.Node {
	n := len(db.Catalog.Table("lineitem").Columns)
	return &exec.Project{
		In:    &exec.TableScan{Table: "lineitem", NCols: n},
		Exprs: []expr.Expr{expr.Col(0, tpch.LOrderkey), expr.Col(0, tpch.LQuantity)},
	}
}

// filterScanPlan is the allocation benchmark: a selective conjunctive filter
// (TPC-H Q6 shape — a discount band around 5% plus a quantity cut) evaluated
// on every lineitem row, output rows passed through unchanged. The seed
// interpreter heap-allocates the ABS argument slice for every row; the
// compiled form evaluates the whole predicate allocation-free.
func filterScanPlan(db *storage.Database) exec.Node {
	n := len(db.Catalog.Table("lineitem").Columns)
	discountBand := expr.NewCmp(expr.LE,
		expr.Func{Name: "ABS", Args: []expr.Expr{
			expr.NewArith(expr.Sub, expr.Col(0, tpch.LDiscount), expr.CFloat(0.05)),
		}},
		expr.CFloat(0.01))
	return &exec.TableScan{
		Table: "lineitem",
		NCols: n,
		Filter: expr.NewAnd(
			discountBand,
			expr.NewCmp(expr.LT, expr.Col(0, tpch.LQuantity), expr.CInt(10)),
		),
	}
}

// join3Plan is a left-deep 3-way join: filtered orders ⋈ customer ⋈ lineitem.
func join3Plan(db *storage.Database) exec.Node {
	no := len(db.Catalog.Table("orders").Columns)
	nc := len(db.Catalog.Table("customer").Columns)
	nl := len(db.Catalog.Table("lineitem").Columns)
	oc := &exec.HashJoin{
		L: &exec.TableScan{Table: "orders", NCols: no,
			Filter: expr.NewCmp(expr.GT, expr.Col(0, tpch.OTotalprice), expr.CFloat(570000))},
		R:     &exec.TableScan{Table: "customer", NCols: nc},
		LCols: []int{tpch.OCustkey},
		RCols: []int{tpch.CCustkey},
	}
	return &exec.HashJoin{
		L:     oc,
		R:     &exec.TableScan{Table: "lineitem", NCols: nl},
		LCols: []int{tpch.OOrderkey},
		RCols: []int{tpch.LOrderkey},
	}
}

// groupAggJoinPlan is the acceptance benchmark: part ⋈ lineitem grouped by
// brand with COUNT(*), SUM and AVG — the shape every rollup view
// materialization and repair runs.
func groupAggJoinPlan(db *storage.Database) exec.Node {
	np := len(db.Catalog.Table("part").Columns)
	nl := len(db.Catalog.Table("lineitem").Columns)
	join := &exec.HashJoin{
		L:     &exec.TableScan{Table: "part", NCols: np},
		R:     &exec.TableScan{Table: "lineitem", NCols: nl},
		LCols: []int{tpch.PPartkey},
		RCols: []int{tpch.LPartkey},
	}
	return &exec.HashAgg{
		In:      join,
		GroupBy: []expr.Expr{expr.Col(0, tpch.PBrand)},
		Aggs: []exec.AggSpec{
			{Num: exec.SimpleAgg{Kind: spjg.AggCountStar}},
			{Num: exec.SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, np+tpch.LQuantity)}},
			{Num: exec.SimpleAgg{Kind: spjg.AggAvg, Arg: expr.Col(0, np+tpch.LExtendedprice)}},
		},
	}
}

func benchPlan(b *testing.B, build func(*storage.Database) exec.Node) {
	db := execBenchDB(b)
	plan := build(db)
	run := func(b *testing.B, exe func() ([]storage.Row, error), scanStats bool) {
		b.ReportAllocs()
		if scanStats {
			exec.ResetScanStats()
		}
		b.ResetTimer()
		var rows []storage.Row
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = exe()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(len(rows)), "rows")
			if scanStats {
				// Per-op block counters: how many 1024-row blocks one run
				// scanned versus pruned via zone maps.
				st := exec.ReadScanStats()
				b.ReportMetric(float64(st.BlocksScanned)/float64(b.N), "blk-scanned/op")
				b.ReportMetric(float64(st.BlocksSkipped)/float64(b.N), "blk-skipped/op")
			}
		}
	}
	b.Run("seed", func(b *testing.B) {
		run(b, func() ([]storage.Row, error) { return exec.RunReference(db, plan) }, false)
	})
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("engine-w%d", w), func(b *testing.B) {
			eng := &exec.Engine{Workers: w}
			run(b, func() ([]storage.Row, error) { return eng.Run(db, plan) }, true)
		})
	}
}

func BenchmarkExecScan(b *testing.B)       { benchPlan(b, scanPlan) }
func BenchmarkExecFilterScan(b *testing.B) { benchPlan(b, filterScanPlan) }
func BenchmarkExecJoin3Way(b *testing.B)   { benchPlan(b, join3Plan) }

func BenchmarkExecGroupAggJoin(b *testing.B) {
	benchPlan(b, groupAggJoinPlan)
	// Allocation-parity guard: probe/gather/agg scratch is pooled per worker,
	// so adding workers must not add per-row allocations — only fixed
	// per-worker state (sinks, maps, pooled buffers on first use). The w4 run
	// once allocated ~30% more than w1 because each worker grew private probe
	// scratch from nothing; with pooling the two must stay within 20% (plus a
	// fixed per-worker allowance for the extra shards and their merge).
	b.Run("alloc-parity", func(b *testing.B) {
		db := execBenchDB(b)
		plan := groupAggJoinPlan(db)
		w1 := measureRunAllocs(b, db, plan, 1)
		w4 := measureRunAllocs(b, db, plan, 4)
		b.ReportMetric(float64(w1), "w1-allocs")
		b.ReportMetric(float64(w4), "w4-allocs")
		if limit := w1 + w1/5 + 20000; w4 > limit {
			b.Fatalf("w4 allocs %d exceed bound %d (w1=%d): per-worker scratch is not pooled",
				w4, limit, w1)
		}
	})
}

// measureRunAllocs reports the mallocs of one steady-state engine run (one
// warm-up run fills the scratch pools and the build/gather slabs' caches).
func measureRunAllocs(b *testing.B, db *storage.Database, plan exec.Node, workers int) uint64 {
	b.Helper()
	eng := &exec.Engine{Workers: workers}
	if _, err := eng.Run(db, plan); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(db, plan); err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
