package core

import (
	"strings"
	"testing"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// TestPaperExample2 reproduces §3.1.2 Example 2 end to end.
//
// View (instances 0=lineitem, 1=orders, 2=part):
//
//	SELECT l_orderkey, o_custkey, l_partkey, l_shipdate, o_orderdate,
//	       l_quantity*l_extendedprice AS gross, p_name
//	FROM lineitem, orders, part
//	WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey
//	  AND p_partkey > 150 AND o_custkey >= 50 AND o_custkey <= 500
//	  AND p_name LIKE '%abc%'
//
// Query:
//
//	SELECT l_orderkey, gross
//	FROM lineitem, orders, part
//	WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey
//	  AND l_partkey > 150 AND l_partkey < 160 AND o_custkey = 123
//	  AND o_orderdate = l_shipdate AND p_name LIKE '%abc%'
//	  AND l_quantity*l_extendedprice > 100
//
// Expected (from the paper): the view passes all tests; the compensating
// predicates are (o_orderdate = l_shipdate), (l_partkey < 160),
// (o_custkey = 123), and (l_quantity*l_extendedprice > 100).
func TestPaperExample2(t *testing.T) {
	m := defaultMatcher()
	l, o, p := 0, 1, 2
	gross := expr.NewArith(expr.Mul, expr.Col(l, tpch.LQuantity), expr.Col(l, tpch.LExtendedprice))
	like := expr.Like{E: expr.Col(p, tpch.PName), Pattern: expr.CStr("%abc%")}

	view := &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders"), tref("part")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
			expr.Eq(expr.Col(l, tpch.LPartkey), expr.Col(p, tpch.PPartkey)),
			expr.NewCmp(expr.GT, expr.Col(p, tpch.PPartkey), expr.CInt(150)),
			expr.NewCmp(expr.GE, expr.Col(o, tpch.OCustkey), expr.CInt(50)),
			expr.NewCmp(expr.LE, expr.Col(o, tpch.OCustkey), expr.CInt(500)),
			like,
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(l, tpch.LOrderkey)},
			{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
			{Name: "l_partkey", Expr: expr.Col(l, tpch.LPartkey)},
			{Name: "l_shipdate", Expr: expr.Col(l, tpch.LShipdate)},
			{Name: "o_orderdate", Expr: expr.Col(o, tpch.OOrderdate)},
			{Name: "gross", Expr: gross},
			{Name: "p_name", Expr: expr.Col(p, tpch.PName)},
		},
	}
	v := mustView(t, m, 0, "v2", view)

	query := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders"), tref("part")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
			expr.Eq(expr.Col(l, tpch.LPartkey), expr.Col(p, tpch.PPartkey)),
			expr.NewCmp(expr.GT, expr.Col(l, tpch.LPartkey), expr.CInt(150)),
			expr.NewCmp(expr.LT, expr.Col(l, tpch.LPartkey), expr.CInt(160)),
			expr.Eq(expr.Col(o, tpch.OCustkey), expr.CInt(123)),
			expr.Eq(expr.Col(o, tpch.OOrderdate), expr.Col(l, tpch.LShipdate)),
			like,
			expr.NewCmp(expr.GT, gross, expr.CInt(100)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(l, tpch.LOrderkey)},
			{Name: "gross", Expr: gross},
		},
	})

	sub := m.Match(query, v)
	if sub == nil {
		t.Fatal("Example 2 view did not match")
	}
	if sub.Filter == nil {
		t.Fatal("Example 2 requires compensating predicates")
	}
	and, ok := sub.Filter.(expr.And)
	if !ok {
		t.Fatalf("filter = %v", sub.Filter)
	}
	// Four compensations: the column equality, the strict upper bound on
	// partkey, the point on custkey, and the product residual.
	if len(and.Args) != 4 {
		t.Fatalf("got %d compensating predicates, want 4:\n%s",
			len(and.Args), expr.Render(sub.Filter, sub.OutputResolver()))
	}
	rendered := expr.Render(sub.Filter, sub.OutputResolver())
	for _, frag := range []string{
		"(v2.l_shipdate = v2.o_orderdate)",
		"< 160",
		"= 123",
		"> 100",
	} {
		if !strings.Contains(rendered, frag) {
			t.Errorf("compensating predicates missing %q:\n%s", frag, rendered)
		}
	}
	// The gross output must map to the precomputed view column, not be
	// recomputed (the view outputs l_quantity*l_extendedprice directly).
	if col, ok := sub.Outputs[1].Expr.(expr.Column); !ok || col.Ref.Col != 5 {
		t.Errorf("gross output = %v, want view column 5", sub.Outputs[1].Expr)
	}
}

// TestPaperExample3 reproduces §3.2 Example 3: a view with two extra tables
// (orders, customer) answers a single-table lineitem query; the foreign-key
// join graph eliminates customer then orders; the compensating predicates are
// l_orderkey >= 1000, l_orderkey <= 1500, and l_shipdate = l_commitdate —
// but the view does not output l_shipdate/l_commitdate, so the paper's exact
// view is rejected on the equality compensation; with those columns added it
// matches. (The paper stops Example 3 after the subsumption tests.)
func TestPaperExample3(t *testing.T) {
	m := defaultMatcher()
	v := mustView(t, m, 0, "v3", example3View())
	q := mustValidate(t, example3Query())
	// The paper's view lacks l_shipdate/l_commitdate outputs: the
	// compensating equality cannot be applied.
	if m.Match(q, v) != nil {
		t.Fatal("compensating equality on missing outputs must reject")
	}

	// Extend the view's outputs with the two date columns; now everything
	// the paper derives goes through.
	ext := example3View()
	ext.Outputs = append(ext.Outputs,
		spjg.OutputColumn{Name: "l_shipdate", Expr: expr.Col(0, tpch.LShipdate)},
		spjg.OutputColumn{Name: "l_commitdate", Expr: expr.Col(0, tpch.LCommitdate)},
	)
	v2 := mustView(t, m, 1, "v3x", ext)
	sub := m.Match(q, v2)
	if sub == nil {
		t.Fatal("Example 3 (extended outputs) did not match")
	}
	rendered := expr.Render(sub.Filter, sub.OutputResolver())
	for _, frag := range []string{">= 1000", "<= 1500", "(v3x.l_shipdate = v3x.l_commitdate)"} {
		if !strings.Contains(rendered, frag) {
			t.Errorf("Example 3 compensations missing %q:\n%s", frag, rendered)
		}
	}
	if sub.Regroup {
		t.Error("SPJ substitute must not regroup")
	}
}

// TestPaperExample4Inner reproduces the view-matching half of §3.3 Example 4:
// after the optimizer's pre-aggregation rewrite, the inner query block
//
//	SELECT o_custkey, SUM(l_quantity*l_extendedprice) AS rev
//	FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_custkey
//
// is exactly computable from view v4 with no compensation at all.
func TestPaperExample4Inner(t *testing.T) {
	m := defaultMatcher()
	l, o := 0, 1
	rev := expr.NewArith(expr.Mul, expr.Col(l, tpch.LQuantity), expr.Col(l, tpch.LExtendedprice))
	v4def := &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:   expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
		GroupBy: []expr.Expr{expr.Col(o, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "revenue", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: rev}},
		},
	}
	v4 := mustView(t, m, 0, "v4", v4def)

	inner := mustValidate(t, &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:   expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
		GroupBy: []expr.Expr{expr.Col(o, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
			{Name: "rev", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: rev}},
		},
	})
	sub := m.Match(inner, v4)
	if sub == nil {
		t.Fatal("Example 4 inner query did not match v4")
	}
	if sub.Filter != nil || sub.Regroup {
		t.Fatalf("Example 4 inner match must be a plain projection of v4: %s", sub)
	}
	// o_custkey → view output 0, rev → view output 2 (revenue).
	if col := sub.Outputs[0].Expr.(expr.Column); col.Ref.Col != 0 {
		t.Errorf("o_custkey output = %v", sub.Outputs[0].Expr)
	}
	if col := sub.Outputs[1].Expr.(expr.Column); col.Ref.Col != 2 {
		t.Errorf("rev output = %v", sub.Outputs[1].Expr)
	}

	// The OUTER shape of Example 4 (grouping by c_nationkey, a column of a
	// table the view lacks in a way that needs a join) must NOT match v4
	// directly: that is exactly why the optimizer's pre-aggregation rule is
	// needed.
	outer := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders"), tref("customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
		),
		GroupBy: []expr.Expr{expr.Col(2, tpch.CNationkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "c_nationkey", Expr: expr.Col(2, tpch.CNationkey)},
			{Name: "rev", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: rev}},
		},
	})
	if m.Match(outer, v4) != nil {
		t.Fatal("outer Example 4 query matched v4 directly; it must require pre-aggregation")
	}
}

// TestPaperExample6 reproduces §4.2.3 Example 6's output-column reasoning
// through the matcher: the query outputs A, B, C with classes {A,D,E},{B,F},
// {C}; the view outputs D (≡A via its own classes), B, and C — enough to
// compute the query output.
func TestPaperExample6(t *testing.T) {
	m := defaultMatcher()
	l := 0
	// Realize the example on lineitem/orders: query outputs l_orderkey
	// (class {l_orderkey, o_orderkey}), view outputs o_orderkey instead.
	join := expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey))
	v := mustView(t, m, 0, "v6", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:  join,
		Outputs: []spjg.OutputColumn{
			{Name: "o_orderkey", Expr: expr.Col(1, tpch.OOrderkey)},
			{Name: "l_quantity", Expr: expr.Col(l, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	})
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:  join,
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(l, tpch.LOrderkey)}, // via class
			{Name: "l_quantity", Expr: expr.Col(l, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	})
	if m.Match(q, v) == nil {
		t.Fatal("Example 6 output-column equivalence failed")
	}

	// Keys must reflect the extended output list: the view's OutputCols
	// include both lineitem.l_orderkey and orders.o_orderkey.
	if !hasKey(m, v.Keys.OutputCols, "lineitem.l_orderkey") || !hasKey(m, v.Keys.OutputCols, "orders.o_orderkey") {
		t.Errorf("extended output cols = %v", v.Keys.OutputCols)
	}
}
