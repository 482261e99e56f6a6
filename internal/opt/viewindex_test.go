package opt

import (
	"strings"
	"testing"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// indexedViewSetup registers an aggregation view keyed on l_partkey with a
// declared index, materializes it, and builds the matching storage index.
func indexedViewSetup(t *testing.T) *Optimizer {
	t.Helper()
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	if _, err := o.RegisterView("part_qty", vdef); err != nil {
		t.Fatal(err)
	}
	mv, err := materialize(db(t), "part_qty", vdef)
	if err != nil {
		t.Fatal(err)
	}
	o.SetViewRowCount("part_qty", mv.RowCount())
	if err := o.RegisterViewIndex("part_qty", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestViewIndexSeekChosen(t *testing.T) {
	o := indexedViewSetup(t)
	// Point query on the view key: the plan must be a ViewSeek.
	q := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem")},
		Where:   expr.Eq(expr.Col(0, tpch.LPartkey), expr.CInt(50)),
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	res := runAndCompare(t, o, q)
	if !res.UsesView {
		t.Fatalf("view not used:\n%s", exec.Explain(res.Plan))
	}
	plan := exec.Explain(res.Plan)
	if !strings.Contains(plan, "ViewSeek") {
		t.Fatalf("expected an index seek:\n%s", plan)
	}

	// A range query on the key cannot seek (hash index): plain ViewScan.
	q2 := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Where: expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col(0, tpch.LPartkey), expr.CInt(10)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(20)),
		),
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	res2 := runAndCompare(t, o, q2)
	if strings.Contains(exec.Explain(res2.Plan), "ViewSeek") {
		t.Fatalf("range predicate must not seek a hash index:\n%s", exec.Explain(res2.Plan))
	}
}

func TestViewSeekCheaperThanScan(t *testing.T) {
	o := indexedViewSetup(t)
	q := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem")},
		Where:   expr.Eq(expr.Col(0, tpch.LPartkey), expr.CInt(7)),
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
		},
	}
	withIdx, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same setup but no index declared.
	noIdx := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := o.ViewByName("part_qty").Def
	if _, err := noIdx.RegisterView("part_qty", vdef); err != nil {
		t.Fatal(err)
	}
	noIdx.SetViewRowCount("part_qty", db(t).View("part_qty").RowCount())
	plain, err := noIdx.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if withIdx.Cost >= plain.Cost {
		t.Fatalf("index seek not cheaper: %.1f vs %.1f", withIdx.Cost, plain.Cost)
	}
}

func TestViewSeekWithoutStorageIndexStillCorrect(t *testing.T) {
	// Declaring the index to the optimizer without building the storage index
	// must still execute correctly (scan fallback inside ViewScan).
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "orders")},
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	}
	if _, err := o.RegisterView("ordv", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db(t), "ordv", vdef); err != nil {
		t.Fatal(err)
	}
	o.SetViewRowCount("ordv", db(t).View("ordv").RowCount())
	if err := o.RegisterViewIndex("ordv", []int{1}); err != nil {
		t.Fatal(err)
	}
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "orders")},
		Where:  expr.Eq(expr.Col(0, tpch.OCustkey), expr.CInt(42)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	}
	runAndCompare(t, o, q)
}

func TestRegisterViewIndexErrors(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	if err := o.RegisterViewIndex("ghost", []int{0}); err == nil {
		t.Error("index on unknown view registered")
	}
	vdef := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "orders")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.OOrderkey)}},
	}
	if _, err := o.RegisterView("v", vdef); err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterViewIndex("v", []int{5}); err == nil {
		t.Error("out-of-range index ordinal registered")
	}
}

func TestSeekAccessCompositeIndex(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_suppkey", Expr: expr.Col(0, tpch.LSuppkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
	if _, err := o.RegisterView("psv", vdef); err != nil {
		t.Fatal(err)
	}
	mv, err := materialize(db(t), "psv", vdef)
	if err != nil {
		t.Fatal(err)
	}
	o.SetViewRowCount("psv", mv.RowCount())
	if err := o.RegisterViewIndex("psv", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0, 1}, false); err != nil {
		t.Fatal(err)
	}
	// Both columns pinned: composite seek.
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LPartkey), expr.CInt(3)),
			expr.Eq(expr.Col(0, tpch.LSuppkey), expr.CInt(2)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
	res := runAndCompare(t, o, q)
	if !strings.Contains(exec.Explain(res.Plan), "ViewSeek") {
		t.Fatalf("composite seek not used:\n%s", exec.Explain(res.Plan))
	}
	// Only one column pinned: the composite index cannot be probed.
	q2 := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Where:  expr.Eq(expr.Col(0, tpch.LPartkey), expr.CInt(3)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
	res2 := runAndCompare(t, o, q2)
	if strings.Contains(exec.Explain(res2.Plan), "ViewSeek") {
		t.Fatalf("partial composite pin must not seek:\n%s", exec.Explain(res2.Plan))
	}
}
