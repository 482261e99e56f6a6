package core

import (
	"testing"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

func TestViewKeysSPJ(t *testing.T) {
	m := defaultMatcher()
	v := mustView(t, m, 0, "v", example3View())
	k := v.Keys
	if k.IsAggregate {
		t.Error("SPJ view flagged aggregate")
	}
	// Source tables multiset.
	want := []string{"lineitem#0", "orders#0", "customer#0"}
	for _, w := range want {
		if !hasKey(m, k.SourceTables, w) {
			t.Errorf("SourceTables missing %s: %v", w, k.SourceTables)
		}
	}
	// Hub reduces to lineitem.
	if k.Hub.Len() != 1 || !hasKey(m, k.Hub, "lineitem#0") {
		t.Errorf("Hub = %v", k.Hub)
	}
	// Extended output columns include equivalents: the view outputs
	// l_orderkey whose class contains o_orderkey.
	for _, w := range []string{"lineitem.l_orderkey", "orders.o_orderkey",
		"customer.c_custkey", "orders.o_custkey", "lineitem.l_quantity"} {
		if !hasKey(m, k.OutputCols, w) {
			t.Errorf("OutputCols missing %s: %v", w, k.OutputCols)
		}
	}
	// Range constraint classes: {l_orderkey, o_orderkey} is constrained and
	// non-trivial → not in the reduced list, but in RangeClasses.
	if k.RangeColsReduced.Len() != 0 {
		t.Errorf("RangeColsReduced = %v, want empty", k.RangeColsReduced)
	}
	if len(k.RangeClasses) != 1 || !hasKey(m, k.RangeClasses[0], "orders.o_orderkey") {
		t.Errorf("RangeClasses = %v", k.RangeClasses)
	}
}

func TestViewKeysReducedRangeList(t *testing.T) {
	m := defaultMatcher()
	// o_totalprice is range constrained and in a trivial class → reduced
	// list contains it.
	def := example3View()
	def.Where = expr.NewAnd(def.Where,
		expr.NewCmp(expr.GT, expr.Col(1, tpch.OTotalprice), expr.CInt(1000)))
	v := mustView(t, m, 0, "v", def)
	if !hasKey(m, v.Keys.RangeColsReduced, "orders.o_totalprice") {
		t.Errorf("RangeColsReduced = %v", v.Keys.RangeColsReduced)
	}
}

func TestViewKeysAggregate(t *testing.T) {
	m := defaultMatcher()
	v := mustView(t, m, 0, "v", aggView([]int{tpch.LPartkey}, []int{tpch.LQuantity}, nil))
	k := v.Keys
	if !k.IsAggregate {
		t.Fatal("aggregation view not flagged")
	}
	if !hasKey(m, k.GroupingCols, "lineitem.l_partkey") {
		t.Errorf("GroupingCols = %v", k.GroupingCols)
	}
	if !hasKey(m, k.OutputExprs, "SUM:?") {
		t.Errorf("OutputExprs = %v, want SUM:? key", k.OutputExprs)
	}
}

func TestViewKeysResiduals(t *testing.T) {
	m := defaultMatcher()
	v := mustView(t, m, 0, "v", spjLineitemView(
		expr.Like{E: expr.Col(0, tpch.LComment), Pattern: expr.CStr("%x%")},
		tpch.LOrderkey, tpch.LComment))
	if v.Keys.Residuals.Len() != 1 || !hasKey(m, v.Keys.Residuals, "(? LIKE '%x%')") {
		t.Errorf("Residuals = %v", v.Keys.Residuals)
	}
}

func TestQueryKeys(t *testing.T) {
	m := defaultMatcher()
	mustView(t, m, 0, "v", example3View()) // the dictionary only knows what views have
	q := mustValidate(t, example3Query())
	k := m.ComputeQueryKeys(q)
	if k.IsAggregate || k.ScalarAggregate {
		t.Error("SPJ query flagged aggregate")
	}
	if k.SourceTables.Len() != 1 || !hasKey(m, k.SourceTables, "lineitem#0") {
		t.Errorf("SourceTables = %v", k.SourceTables)
	}
	// Output classes: three simple outputs, each a (trivial) class.
	if len(k.OutputClasses) != 3 {
		t.Errorf("OutputClasses = %v", k.OutputClasses)
	}
	// Extended range cols: l_orderkey is constrained; its class is trivial in
	// the query (l_shipdate=l_commitdate is the non-trivial one, not ranged).
	if !hasKey(m, k.ExtRangeCols, "lineitem.l_orderkey") || k.ExtRangeCols.Len() != 1 {
		t.Errorf("ExtRangeCols = %v", k.ExtRangeCols)
	}
}

func TestQueryKeysAggregate(t *testing.T) {
	m := defaultMatcher()
	mustView(t, m, 0, "v", aggView([]int{tpch.LPartkey}, []int{tpch.LQuantity}, nil))
	q := mustValidate(t, aggView([]int{tpch.LPartkey}, []int{tpch.LQuantity}, nil))
	k := m.ComputeQueryKeys(q)
	if !k.IsAggregate || k.ScalarAggregate {
		t.Errorf("flags = %+v", k)
	}
	if len(k.GroupingClasses) != 1 || !hasKey(m, k.GroupingClasses[0], "lineitem.l_partkey") {
		t.Errorf("GroupingClasses = %v", k.GroupingClasses)
	}
	if !hasKey(m, k.OutputExprsAgg, "SUM:?") {
		t.Errorf("OutputExprsAgg = %v", k.OutputExprsAgg)
	}
	if k.OutputExprsSPJ.Len() != 0 {
		t.Errorf("OutputExprsSPJ = %v, want empty (SUM keys are agg-only)", k.OutputExprsSPJ)
	}

	scalar := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{
			{Name: "c", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
		},
	})
	if sk := m.ComputeQueryKeys(scalar); !sk.ScalarAggregate {
		t.Error("scalar aggregate not flagged")
	}
}

func TestQueryKeysExtendedRangeThroughEquivalence(t *testing.T) {
	m := defaultMatcher()
	mustView(t, m, 0, "v", example3View())
	// Query: l_orderkey = o_orderkey AND o_orderkey > 5 — the extended range
	// list must contain both columns.
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.NewCmp(expr.GT, expr.Col(1, tpch.OOrderkey), expr.CInt(5)),
		),
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)}},
	})
	k := m.ComputeQueryKeys(q)
	if !hasKey(m, k.ExtRangeCols, "lineitem.l_orderkey") || !hasKey(m, k.ExtRangeCols, "orders.o_orderkey") {
		t.Errorf("ExtRangeCols = %v", k.ExtRangeCols)
	}
}

// An element no registered view has cannot occur in a view key: subset
// searches drop it, and where a superset search would need it the subtree is
// skipped.
func TestQueryKeysUnknownElements(t *testing.T) {
	m := defaultMatcher()
	mustView(t, m, 0, "v", spjLineitemView(
		expr.Like{E: expr.Col(0, tpch.LComment), Pattern: expr.CStr("%x%")},
		tpch.LOrderkey, tpch.LComment))

	// A table no view references.
	k := m.ComputeQueryKeys(mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.OOrderkey)}},
	}))
	if !k.SkipSPJ || !k.SkipAgg {
		t.Errorf("unknown table: SkipSPJ=%v SkipAgg=%v", k.SkipSPJ, k.SkipAgg)
	}
	// A second occurrence of a table every view has once.
	k = m.ComputeQueryKeys(mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem"), trefAs("lineitem", "l2")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)}},
	}))
	if !k.SkipSPJ || !k.SkipAgg {
		t.Errorf("unknown occurrence: SkipSPJ=%v SkipAgg=%v", k.SkipSPJ, k.SkipAgg)
	}
	// A residual and an output expression no view has: the residual is
	// dropped (views need a subset of the query's), the expression rules
	// every view out (views need a superset).
	k = m.ComputeQueryKeys(mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where: expr.NewAnd(
			expr.Like{E: expr.Col(0, tpch.LComment), Pattern: expr.CStr("%x%")},
			expr.Like{E: expr.Col(0, tpch.LComment), Pattern: expr.CStr("%y%")}),
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)}},
	}))
	if k.SkipSPJ || k.Residuals.Len() != 1 || !hasKey(m, k.Residuals, "(? LIKE '%x%')") {
		t.Errorf("unknown residual: SkipSPJ=%v Residuals=%v", k.SkipSPJ, k.Residuals)
	}
	k = m.ComputeQueryKeys(mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{{Name: "e",
			Expr: expr.NewArith(expr.Mul, expr.Col(0, tpch.LQuantity), expr.Col(0, tpch.LExtendedprice))}},
	}))
	if !k.SkipSPJ {
		t.Error("output expression no view has must rule out every view")
	}
}
