package exec_test

import (
	"testing"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// TestDisjunctiveSubstituteEquivalence executes disjunctive-range rewrites
// against real data: a view holding two disjoint key bands answers queries
// with narrower disjunctions, and the rows must agree exactly.
func TestDisjunctiveSubstituteEquivalence(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 17)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := core.NewMatcher(cat, core.DefaultOptions())
	lp := func(op expr.CmpOp, c int64) expr.Expr {
		return expr.NewCmp(op, expr.Col(0, tpch.LPartkey), expr.CInt(c))
	}

	vdef := &spjg.Query{
		Tables: []spjg.TableRef{{Table: cat.Table("lineitem")}},
		Where: expr.NewOr(
			lp(expr.LE, 60),
			expr.NewAnd(lp(expr.GE, 120), lp(expr.LE, 180)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
	v, err := m.NewView(0, "bands", vdef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db, "bands", vdef); err != nil {
		t.Fatal(err)
	}

	queries := []*spjg.Query{
		{ // narrower disjunction inside both bands
			Tables: []spjg.TableRef{{Table: cat.Table("lineitem")}},
			Where: expr.NewOr(
				lp(expr.LE, 30),
				expr.NewAnd(lp(expr.GE, 150), lp(expr.LE, 170)),
			),
			Outputs: []spjg.OutputColumn{
				{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
				{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
			},
		},
		{ // plain range inside one band
			Tables: []spjg.TableRef{{Table: cat.Table("lineitem")}},
			Where:  expr.NewAnd(lp(expr.GE, 130), lp(expr.LE, 160)),
			Outputs: []spjg.OutputColumn{
				{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			},
		},
		{ // aggregation over the disjunction
			Tables: []spjg.TableRef{{Table: cat.Table("lineitem")}},
			Where: expr.NewOr(
				lp(expr.LE, 60),
				expr.NewAnd(lp(expr.GE, 120), lp(expr.LE, 180)),
			),
			GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
				{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
			},
		},
	}
	for qi, q := range queries {
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sub := m.Match(q, v)
		if sub == nil {
			t.Fatalf("query %d rejected", qi)
		}
		got, err := exec.BuildSubstitutePlan(sub).Run(db)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want, err := exec.RunQuery(db, q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(want) == 0 {
			t.Fatalf("query %d returned no rows; check vacuous", qi)
		}
		if !exec.SameRows(got, want) {
			t.Fatalf("query %d: substitute differs (%d vs %d rows)\nsubstitute: %s",
				qi, len(got), len(want), sub)
		}
	}

	// A query leaking outside the bands must be rejected — and if it were
	// not, execution would catch it.
	leak := &spjg.Query{
		Tables: []spjg.TableRef{{Table: cat.Table("lineitem")}},
		Where:  expr.NewAnd(lp(expr.GE, 50), lp(expr.LE, 130)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
		},
	}
	if m.Match(leak, v) != nil {
		t.Fatal("query spanning the gap between bands matched")
	}
}
