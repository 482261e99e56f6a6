package core

import (
	"strings"
	"testing"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

func TestBackjoinRecoversMissingOutput(t *testing.T) {
	m := defaultMatcher()
	// View outputs orders' PK and one payload column; the query additionally
	// needs o_totalprice — recoverable by backjoining orders on o_orderkey.
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OCustkey), expr.CInt(1)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OCustkey), expr.CInt(1)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	})
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("backjoin-recoverable query rejected")
	}
	if len(sub.Backjoins) != 1 || sub.Backjoins[0].Table.Name != "orders" {
		t.Fatalf("backjoins = %+v", sub.Backjoins)
	}
	// The recovered output references Tab 1.
	col, ok := sub.Outputs[1].Expr.(expr.Column)
	if !ok || col.Ref.Tab != 1 || col.Ref.Col != tpch.OTotalprice {
		t.Fatalf("recovered output = %v", sub.Outputs[1].Expr)
	}
	if !strings.Contains(sub.String(), "BACKJOIN orders") {
		t.Errorf("String() = %s", sub)
	}

	// Paper-prototype mode (no backjoins) must reject.
	pm := paperMatcher()
	pv := mustView(t, pm, 1, "pv", v.Def)
	if pm.Match(q, pv) != nil {
		t.Fatal("prototype mode produced a backjoin")
	}
}

func TestBackjoinRequiresUniqueKeyInOutputs(t *testing.T) {
	m := defaultMatcher()
	// View outputs only o_custkey (not a unique key): backjoin impossible.
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
			{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
		},
	})
	if m.Match(q, v) != nil {
		t.Fatal("backjoin without a unique key accepted")
	}
}

func TestBackjoinCompositeKey(t *testing.T) {
	m := defaultMatcher()
	// lineitem's PK is (l_orderkey, l_linenumber); both must be output.
	full := mustView(t, m, 0, "full", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_linenumber", Expr: expr.Col(0, tpch.LLinenumber)},
		},
	})
	partial := mustView(t, m, 1, "partial", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	})
	if sub := m.Match(q, full); sub == nil || len(sub.Backjoins) != 1 {
		t.Fatal("composite-key backjoin failed")
	}
	if m.Match(q, partial) != nil {
		t.Fatal("half a composite key must not enable a backjoin")
	}
}

func TestBackjoinCompensatingPredicate(t *testing.T) {
	m := defaultMatcher()
	// The query's extra range is on a column the view lacks; the backjoin
	// recovers it for the compensating filter.
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
			{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(100000)),
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
		},
	})
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("backjoin for compensating predicate rejected")
	}
	if sub.Filter == nil || len(sub.Backjoins) != 1 {
		t.Fatalf("substitute = %s", sub)
	}
	cols := expr.Columns(sub.Filter)
	if len(cols) != 1 || cols[0].Tab != 1 {
		t.Fatalf("filter columns = %v", cols)
	}
}

func TestBackjoinOnAggregationViewRequiresGroupedKey(t *testing.T) {
	m := defaultMatcher()
	// View grouped on lineitem's full PK: each group is one base row, so a
	// backjoin can recover any lineitem column.
	keyed := mustView(t, m, 0, "keyed", &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LOrderkey), expr.Col(0, tpch.LLinenumber)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_linenumber", Expr: expr.Col(0, tpch.LLinenumber)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LOrderkey), expr.Col(0, tpch.LLinenumber), expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_linenumber", Expr: expr.Col(0, tpch.LLinenumber)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	})
	sub := m.Match(q, keyed)
	if sub == nil {
		t.Fatal("grouped-key backjoin rejected")
	}
	if len(sub.Backjoins) != 1 {
		t.Fatalf("backjoins = %+v", sub.Backjoins)
	}

	// A view grouped on a NON-key column must not backjoin (groups aggregate
	// many base rows; per-row columns are undefined per group).
	coarse := mustView(t, m, 1, "coarse", &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	})
	q2 := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey), expr.Col(0, tpch.LSuppkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_suppkey", Expr: expr.Col(0, tpch.LSuppkey)},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	})
	if m.Match(q2, coarse) != nil {
		t.Fatal("backjoin through a non-key grouping accepted")
	}
}

func TestBackjoinClosureInFilterKeys(t *testing.T) {
	m := defaultMatcher()
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders")},
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
		},
	})
	// With the PK output, the closure exposes every orders column.
	if !hasKey(m, v.Keys.OutputCols, "orders.o_totalprice") {
		t.Errorf("closure missing: %v", v.Keys.OutputCols)
	}
	// Without backjoins (prototype mode) the closure is absent.
	pm := paperMatcher()
	pv := mustView(t, pm, 1, "pv", v.Def)
	if hasKey(pm, pv.Keys.OutputCols, "orders.o_totalprice") {
		t.Errorf("prototype keys contain closure: %v", pv.Keys.OutputCols)
	}
}
