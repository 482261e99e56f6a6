package exec_test

import (
	"testing"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// TestBackjoinSubstituteEquivalence executes backjoin rewrites (§7) against
// generated data and checks row-for-row agreement with direct evaluation.
func TestBackjoinSubstituteEquivalence(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 19)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := core.NewMatcher(cat, core.DefaultOptions())
	tr := func(n string) spjg.TableRef { return spjg.TableRef{Table: cat.Table(n)} }

	type scenario struct {
		name  string
		view  *spjg.Query
		query *spjg.Query
	}
	scenarios := []scenario{
		{
			name: "spj output recovery",
			view: &spjg.Query{
				Tables: []spjg.TableRef{tr("orders")},
				Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(100000)),
				Outputs: []spjg.OutputColumn{
					{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
					{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
				},
			},
			query: &spjg.Query{
				Tables: []spjg.TableRef{tr("orders")},
				Where:  expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(200000)),
				Outputs: []spjg.OutputColumn{
					{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
					{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)}, // missing from view
				},
			},
		},
		{
			name: "compensating predicate on recovered column",
			view: &spjg.Query{
				Tables: []spjg.TableRef{tr("orders")},
				Outputs: []spjg.OutputColumn{
					{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
				},
			},
			query: &spjg.Query{
				Tables: []spjg.TableRef{tr("orders")},
				Where:  expr.NewCmp(expr.LE, expr.Col(0, tpch.OCustkey), expr.CInt(50)),
				Outputs: []spjg.OutputColumn{
					{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
					{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
				},
			},
		},
		{
			name: "aggregation grouped on key with backjoined grouping column",
			view: &spjg.Query{
				Tables:  []spjg.TableRef{tr("lineitem")},
				GroupBy: []expr.Expr{expr.Col(0, tpch.LOrderkey), expr.Col(0, tpch.LLinenumber)},
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
					{Name: "l_linenumber", Expr: expr.Col(0, tpch.LLinenumber)},
					{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
					{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
				},
			},
			query: &spjg.Query{
				Tables:  []spjg.TableRef{tr("lineitem")},
				GroupBy: []expr.Expr{expr.Col(0, tpch.LOrderkey), expr.Col(0, tpch.LLinenumber), expr.Col(0, tpch.LPartkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
					{Name: "l_linenumber", Expr: expr.Col(0, tpch.LLinenumber)},
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
					{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
				},
			},
		},
	}
	for i, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			if err := sc.query.Validate(); err != nil {
				t.Fatal(err)
			}
			name := "bj_mv"
			v, err := m.NewView(i, name, sc.view)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := materialize(db, name, sc.view); err != nil {
				t.Fatal(err)
			}
			sub := m.Match(sc.query, v)
			if sub == nil {
				t.Fatal("matcher rejected")
			}
			if len(sub.Backjoins) == 0 {
				t.Fatalf("expected a backjoin: %s", sub)
			}
			got, err := exec.BuildSubstitutePlan(sub).Run(db)
			if err != nil {
				t.Fatalf("%v\nsubstitute: %s", err, sub)
			}
			want, err := exec.RunQuery(db, sc.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("query returned no rows; vacuous")
			}
			if !exec.SameRows(got, want) {
				t.Fatalf("backjoin substitute differs (%d vs %d rows)\nsubstitute: %s",
					len(got), len(want), sub)
			}
		})
	}
}
