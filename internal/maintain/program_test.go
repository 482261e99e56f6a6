package maintain_test

import (
	"testing"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/maintain"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// midOrderLineitems returns ten lineitems of ten consecutive orders halfway
// through orders, on line number 10, which no generated lineitem uses.
func midOrderLineitems(db *storage.Database) []storage.Row {
	orders := db.Table("orders")
	var rows []storage.Row
	for k := 0; k < 10; k++ {
		r := db.Table("lineitem").RowAt(k).Clone()
		r[tpch.LOrderkey] = orders.RowAt(orders.NumRows()/2 + k)[tpch.OOrderkey]
		r[tpch.LLinenumber] = sqlvalue.NewInt(10)
		rows = append(rows, r)
	}
	return rows
}

// statementCounts runs one statement and returns what it added to the scan
// and join counters.
func statementCounts(t *testing.T, stmt func() error) exec.ScanStats {
	t.Helper()
	before := exec.ReadScanStats()
	if err := stmt(); err != nil {
		t.Fatal(err)
	}
	after := exec.ReadScanStats()
	return exec.ScanStats{
		BlocksScanned:  after.BlocksScanned - before.BlocksScanned,
		BlocksSkipped:  after.BlocksSkipped - before.BlocksSkipped,
		RowsProbed:     after.RowsProbed - before.RowsProbed,
		RowsMatched:    after.RowsMatched - before.RowsMatched,
		RowsGathered:   after.RowsGathered - before.RowsGathered,
		ReferencePlans: after.ReferencePlans - before.ReferencePlans,
	}
}

// deleteMarked deletes the lineitems midOrderLineitems inserted.
func deleteMarked(m *maintain.Maintainer) func() error {
	return func() error {
		_, err := m.DeleteWhere("lineitem", expr.Eq(expr.Col(0, tpch.LLinenumber), expr.CInt(10)))
		return err
	}
}

// TestJoinDeltaProbesOrdersByKey: two views join lineitem to orders on the
// order key (write_maintain's wm_cust and wm_prio). A 10-row INSERT whose
// keys lie in the middle of orders, and the DELETE of those rows, each read
// Δ's one block once per view and probe orders once per Δ row — the shared
// Δ⋈orders node, through orders' index on o_orderkey — matching exactly one
// order per row: no block of orders is scanned, and no reference plan is
// built on the statement path. Both views equal their recompute after each.
func TestJoinDeltaProbesOrdersByKey(t *testing.T) {
	db, err := tpch.NewDatabase(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := maintain.New(db)
	cust, err := register(m, "li_cust", liOrdersCust(cat, "lineitem", "orders"))
	if err != nil {
		t.Fatal(err)
	}
	prio := liOrdersCust(cat, "orders", "lineitem")
	prio.GroupBy = []expr.Expr{expr.Col(0, tpch.OOrderpriority)}
	prio.Outputs[0] = spjg.OutputColumn{Name: "o_orderpriority", Expr: expr.Col(0, tpch.OOrderpriority)}
	pv, err := register(m, "li_prio", prio)
	if err != nil {
		t.Fatal(err)
	}
	rows := midOrderLineitems(db)
	want := exec.ScanStats{BlocksScanned: 2, RowsProbed: 10, RowsMatched: 10}
	for _, stmt := range []struct {
		what string
		run  func() error
	}{
		{"insert", func() error { return m.Insert("lineitem", rows) }},
		{"delete", deleteMarked(m)},
	} {
		if got := statementCounts(t, stmt.run); got != want {
			t.Errorf("%s: counters %+v, want %+v", stmt.what, got, want)
		}
		checkAgainstRecompute(t, db, cust)
		checkAgainstRecompute(t, db, pv)
	}
}

// TestIrrelevantUpdateRunsNothing: a view whose conjunct on lineitem alone
// no Δ row passes (l_quantity > 1000; TPC-H quantities stop at 50) costs
// the statement one zone-map test of Δ's one block, which skips it, and
// nothing else — no block read, no probe of orders, no reference plan, no
// write to the view — and stays Fresh and equal to its recompute, through
// an INSERT and a DELETE.
func TestIrrelevantUpdateRunsNothing(t *testing.T) {
	db, err := tpch.NewDatabase(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	def := liOrdersCust(db.Catalog, "lineitem", "orders")
	def.Where = expr.NewAnd(def.Where, expr.NewCmp(expr.GT, expr.Col(0, tpch.LQuantity), expr.CInt(1000)))
	m := maintain.New(db)
	v, err := register(m, "li_big", def)
	if err != nil {
		t.Fatal(err)
	}
	stored := db.View("li_big").Store()
	rows := midOrderLineitems(db)
	for _, stmt := range []struct {
		what string
		run  func() error
	}{
		{"insert", func() error { return m.Insert("lineitem", rows) }},
		{"delete", deleteMarked(m)},
	} {
		if got, want := statementCounts(t, stmt.run), (exec.ScanStats{BlocksSkipped: 1}); got != want {
			t.Errorf("%s: counters %+v, want %+v", stmt.what, got, want)
		}
		if db.View("li_big").Store() != stored {
			t.Errorf("%s: the view's rows were rewritten", stmt.what)
		}
		wantState(t, m, "li_big", maintain.Fresh)
		checkAgainstRecompute(t, db, v)
	}
}

// TestSelfJoinDeltaReadsOnlyDelta: a rollup joining orders to itself on
// o_custkey has three delta terms — Δ⋈R′, R′⋈Δ and Δ⋈Δ, R′ the table as
// written. A 10-row INSERT of orders of ten customers that already have
// orders, and the DELETE of those rows, each read Δ's one block once per
// lead instance (Δ⋈R′ and Δ⋈Δ share one selection) and once more to hash Δ
// for the Δ⋈Δ term, and probe once per Δ row
// for R′ (one node the first two terms share, through orders' locator on
// o_custkey) and once for Δ: no block of orders is scanned, at either size
// of the table, and no reference plan is built. The view equals its
// recompute after each.
func TestSelfJoinDeltaReadsOnlyDelta(t *testing.T) {
	for _, sf := range []float64{0.01, 0.02} {
		db, err := tpch.NewDatabase(sf, 3)
		if err != nil {
			t.Fatal(err)
		}
		cat := db.Catalog
		orders := db.Table("orders")
		if orders.Store().NumBlocks() < 10 {
			t.Fatalf("SF %g: orders spans %d blocks, want at least 10", sf, orders.Store().NumBlocks())
		}
		m := maintain.New(db)
		v, err := register(m, "cust_pairs", &spjg.Query{
			Tables:  []spjg.TableRef{{Table: cat.Table("orders"), Alias: "a"}, {Table: cat.Table("orders"), Alias: "b"}},
			Where:   expr.Eq(expr.Col(0, tpch.OCustkey), expr.Col(1, tpch.OCustkey)),
			GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "c", Expr: expr.Col(0, tpch.OCustkey)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(1, tpch.OTotalprice)}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const marker = 100_000_000
		var rows []storage.Row
		for k := range int64(10) {
			cust := orders.RowAt(orders.NumRows()/2 + int(k))[tpch.OCustkey].Int()
			rows = append(rows, newOrderRow(db, marker+k, cust, float64(1000*k)))
		}
		want := exec.ScanStats{BlocksScanned: 3, RowsProbed: 20, RowsMatched: 20}
		for _, stmt := range []struct {
			what string
			run  func() error
		}{
			{"insert", func() error { return m.Insert("orders", rows) }},
			{"delete", func() error {
				_, err := m.DeleteWhere("orders", expr.NewCmp(expr.GE, expr.Col(0, tpch.OOrderkey), expr.CInt(marker)))
				return err
			}},
		} {
			if got := statementCounts(t, stmt.run); got != want {
				t.Errorf("SF %g, %s: counters %+v, want %+v", sf, stmt.what, got, want)
			}
			checkAgainstRecompute(t, db, v)
		}
	}
}
