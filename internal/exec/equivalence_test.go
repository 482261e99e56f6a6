package exec

import (
	"testing"

	"matview/internal/core"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// TestSubstituteEquivalence is the end-to-end soundness check of the whole
// reproduction: for a battery of (view, query) pairs over generated TPC-H
// data, whenever the matcher produces a substitute, executing the substitute
// against the materialized view must return exactly the rows of the original
// query (bag semantics).
func TestSubstituteEquivalence(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 42) // lineitem ≈ 6000 rows
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	m := core.NewMatcher(cat, core.DefaultOptions())
	tr := func(name string) spjg.TableRef { return spjg.TableRef{Table: cat.Table(name)} }

	l, o := 0, 1
	gross := expr.NewArith(expr.Mul, expr.Col(l, tpch.LQuantity), expr.Col(l, tpch.LExtendedprice))

	type pair struct {
		name  string
		view  *spjg.Query
		query *spjg.Query
	}
	pairs := []pair{
		{
			name: "spj range compensation",
			view: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem")},
				Where:  expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(50)),
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
					{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
				},
			},
			query: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem")},
				Where: expr.NewAnd(
					expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(100)),
					expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(150)),
				),
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
					{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
				},
			},
		},
		{
			name: "join view answering join query with equality compensation",
			view: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem"), tr("orders")},
				Where:  expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(l, tpch.LOrderkey)},
					{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
					{Name: "l_shipdate", Expr: expr.Col(l, tpch.LShipdate)},
					{Name: "l_commitdate", Expr: expr.Col(l, tpch.LCommitdate)},
					{Name: "l_quantity", Expr: expr.Col(l, tpch.LQuantity)},
				},
			},
			query: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem"), tr("orders")},
				Where: expr.NewAnd(
					expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
					expr.Eq(expr.Col(l, tpch.LShipdate), expr.Col(l, tpch.LCommitdate)),
				),
				Outputs: []spjg.OutputColumn{
					{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
					{Name: "l_quantity", Expr: expr.Col(l, tpch.LQuantity)},
				},
			},
		},
		{
			name: "extra table elimination",
			view: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem"), tr("orders")},
				Where:  expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(l, tpch.LOrderkey)},
					{Name: "l_partkey", Expr: expr.Col(l, tpch.LPartkey)},
					{Name: "l_quantity", Expr: expr.Col(l, tpch.LQuantity)},
				},
			},
			query: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem")},
				Where:  expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(100)),
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
					{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
				},
			},
		},
		{
			name: "aggregation rollup",
			view: &spjg.Query{
				Tables:  []spjg.TableRef{tr("lineitem")},
				GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey), expr.Col(0, tpch.LSuppkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
					{Name: "l_suppkey", Expr: expr.Col(0, tpch.LSuppkey)},
					{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
					{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
				},
			},
			query: &spjg.Query{
				Tables:  []spjg.TableRef{tr("lineitem")},
				GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
					{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
					{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
					{Name: "avg_qty", Agg: &spjg.Aggregate{Kind: spjg.AggAvg, Arg: expr.Col(0, tpch.LQuantity)}},
				},
			},
		},
		{
			name: "aggregation equal grouping with avg",
			view: &spjg.Query{
				Tables:  []spjg.TableRef{tr("orders")},
				GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
					{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
					{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
				},
			},
			query: &spjg.Query{
				Tables:  []spjg.TableRef{tr("orders")},
				GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "o_custkey", Expr: expr.Col(0, tpch.OCustkey)},
					{Name: "avg_total", Agg: &spjg.Aggregate{Kind: spjg.AggAvg, Arg: expr.Col(0, tpch.OTotalprice)}},
					{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				},
			},
		},
		{
			name: "agg query over spj view",
			view: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem")},
				Where:  expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(10)),
				Outputs: []spjg.OutputColumn{
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
					{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
					{Name: "gross", Expr: gross},
				},
			},
			query: &spjg.Query{
				Tables: []spjg.TableRef{tr("lineitem")},
				Where: expr.NewAnd(
					expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(10)),
					expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(200)),
				),
				GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
					{Name: "revenue", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: gross}},
				},
			},
		},
		{
			name: "example 4 inner block",
			view: &spjg.Query{
				Tables:  []spjg.TableRef{tr("lineitem"), tr("orders")},
				Where:   expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
				GroupBy: []expr.Expr{expr.Col(o, tpch.OCustkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
					{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
					{Name: "revenue", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: gross}},
				},
			},
			query: &spjg.Query{
				Tables:  []spjg.TableRef{tr("lineitem"), tr("orders")},
				Where:   expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)),
				GroupBy: []expr.Expr{expr.Col(o, tpch.OCustkey)},
				Outputs: []spjg.OutputColumn{
					{Name: "o_custkey", Expr: expr.Col(o, tpch.OCustkey)},
					{Name: "rev", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: gross}},
				},
			},
		},
	}

	for i, p := range pairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			if err := p.query.Validate(); err != nil {
				t.Fatal(err)
			}
			v, err := m.NewView(i, "mv", p.view)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := materialize(db, "mv", p.view); err != nil {
				t.Fatal(err)
			}
			sub := m.Match(p.query, v)
			if sub == nil {
				t.Fatal("matcher rejected the view")
			}
			want, err := RunQuery(db, p.query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildSubstitutePlan(sub).Run(db)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("test query returned no rows; not a meaningful check")
			}
			if !SameRows(want, got) {
				t.Fatalf("substitute result differs from query result (%d vs %d rows)\nsubstitute: %s",
					len(want), len(got), sub)
			}
		})
	}
}
