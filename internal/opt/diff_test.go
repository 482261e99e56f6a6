package opt

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"matview/internal/catalog"
	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/lattice"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/tpch"
)

// Differential runs, for one query, every invocation of the view-matching
// rule inside the memo loop both ways — the subexpression's context derived
// from the query's one analysis (QueryContext.Sub), and the subexpression
// written out as a query and analysed from nothing (the oracle) — and
// requires the same analysis, the same filter-tree keys, the same candidates,
// and the same substitute from every candidate. It then requires costing the
// substitutes before building them to choose what building them first chose.
type Differential struct {
	T           *testing.T
	O           *Optimizer
	Groups      int // memo groups checked
	Blocks      int // pre-aggregation blocks checked
	Degraded    int // contexts with a range conjunct degraded to a residual
	Substitutes int // substitutes checked
}

func (d *Differential) Query(name string, q *spjg.Query) {
	d.T.Helper()
	if err := q.Validate(); err != nil {
		d.T.Fatalf("%s: %v", name, err)
	}
	c, err := d.O.newOptCtx(context.Background(), q)
	if err != nil {
		d.T.Fatal(err)
	}
	or := newOracle(q)
	if want := or.masks(); !slices.Equal(c.masks, want) {
		d.T.Fatalf("%s: enumerated subsets %b, want %b", name, c.masks, want)
	}
	full := uint64(1)<<len(q.Tables) - 1
	for _, mask := range c.masks {
		if mask == full && !q.IsAggregate() {
			continue
		}
		sub, tabs := or.subsetExpr(mask)
		d.invocation(fmt.Sprintf("%s group %b", name, mask), c, c.subset(mask), sub, tabs, nil)
		d.Groups++
	}
	if !q.IsAggregate() || len(q.GroupBy) == 0 || len(q.Tables) < 2 {
		return
	}
	c.partialSums()
	for t := range q.Tables {
		s1 := full &^ (1 << t)
		if !slices.Contains(c.masks, s1) || !or.linked(s1, t) {
			continue
		}
		sub, tabs := or.blockExpr(s1, t)
		if _, ok := c.blockShape(s1, t); ok != (sub != nil) {
			d.T.Fatalf("%s block -%d: blockShape = %v, the oracle built %v", name, t, ok, sub)
		} else if ok {
			d.invocation(fmt.Sprintf("%s block -%d", name, t), c, c.block(s1), sub, tabs, c.pre.keyExprs)
			d.Blocks++
		}
	}
}

// invocation compares one derived context against the oracle expression;
// tabs maps the oracle's table instances to the query's.
func (d *Differential) invocation(name string, c *optCtx, got *core.QueryContext, sub *spjg.Query, tabs []int, groupBy []expr.Expr) {
	t := d.T
	t.Helper()
	if err := sub.Validate(); err != nil {
		t.Fatalf("%s: oracle expression: %v", name, err)
	}
	toQuery := func(r expr.ColRef) expr.ColRef { return expr.ColRef{Tab: tabs[r.Tab], Col: r.Col} }
	// Renumbering a subset is monotone in the order Normalize ranks instances
	// by (the text of their index), so the query's normal forms are the
	// subexpression's: asserted here, relied on by Sub.
	for i := range tabs {
		for j := range tabs {
			if (fmt.Sprint(i) < fmt.Sprint(j)) != (fmt.Sprint(tabs[i]) < fmt.Sprint(tabs[j])) {
				t.Fatalf("%s: renumbering %v does not keep the instance order", name, tabs)
			}
		}
	}
	want := d.O.matcher.NewQueryContext(sub)
	ga, wa := got.Analysis(), want.Analysis()

	// Class partition and representatives.
	for lt, tref := range sub.Tables {
		for col := range tref.Table.Columns {
			r := expr.ColRef{Tab: lt, Col: col}
			wrep := toQuery(wa.EC.Ref(wa.EC.FindID(wa.EC.ID(r))))
			if grep := ga.EC.Ref(ga.EC.FindID(ga.EC.ID(toQuery(r)))); grep != wrep {
				t.Fatalf("%s: representative of %v is %v, want %v", name, toQuery(r), grep, wrep)
			}
		}
	}
	if len(ga.PE) != len(wa.PE) {
		t.Fatalf("%s: %d equalities, want %d", name, len(ga.PE), len(wa.PE))
	}
	for i, eq := range wa.PE {
		if ga.PE[i] != (expr.EqualityConjunct{A: toQuery(eq.A), B: toQuery(eq.B)}) {
			t.Fatalf("%s: PE[%d] = %v, want %v", name, i, ga.PE[i], eq)
		}
	}
	// Ranges, in the order the classes were first constrained.
	if len(ga.Ranges) != len(wa.Ranges) || ga.Contradiction != wa.Contradiction {
		t.Fatalf("%s: ranges %v (contradiction %v), want %v (%v)", name, ga.Ranges, ga.Contradiction, wa.Ranges, wa.Contradiction)
	}
	for i, wr := range wa.Ranges {
		gr := ga.Ranges[i]
		if ga.EC.Ref(gr.Rep) != toQuery(wa.EC.Ref(wr.Rep)) || gr.Range.String() != wr.Range.String() {
			t.Fatalf("%s: range %d = %v on %v, want %v on %v", name, i, gr.Range, ga.EC.Ref(gr.Rep), wr.Range, toQuery(wa.EC.Ref(wr.Rep)))
		}
	}
	// Residuals: normal forms, texts and columns.
	if len(ga.PU) != len(wa.PU) || ga.NResidual != wa.NResidual {
		t.Fatalf("%s: %d residuals (%d own), want %d (%d)", name, len(ga.PU), ga.NResidual, len(wa.PU), wa.NResidual)
	}
	if len(ga.PU) > ga.NResidual {
		d.Degraded++
	}
	for i := range wa.PU {
		if !expr.Equal(ga.PU[i], expr.MapColumns(wa.PU[i], toQuery)) {
			t.Fatalf("%s: residual %d = %v, want %v", name, i, ga.PU[i], expr.MapColumns(wa.PU[i], toQuery))
		}
		gfp, wfp := ga.ResidualFPs[i], wa.ResidualFPs[i]
		if gfp.Text != wfp.Text || len(gfp.Cols) != len(wfp.Cols) {
			t.Fatalf("%s: residual %d fingerprint %v, want %v", name, i, gfp, wfp)
		}
		for k, wc := range wfp.Cols {
			if gfp.Cols[k] != toQuery(wc) {
				t.Fatalf("%s: residual %d fingerprint %v, want %v", name, i, gfp, wfp)
			}
		}
	}

	// Filter-tree keys and candidates.
	gk, wk := got.Keys(), want.Keys()
	if diff := keysDiff(gk, wk); diff != "" {
		t.Fatalf("%s: query keys differ in %s:\n got  %+v\n want %+v", name, diff, gk, wk)
	}
	cands := d.O.tree.Candidates(wk)
	if gc := d.O.tree.Candidates(gk); !slices.Equal(gc, cands) {
		t.Fatalf("%s: %d candidates, want %d", name, len(gc), len(cands))
	}
	// Match results, substitute by substitute.
	var subs []*core.Substitute
	for _, v := range cands {
		gs, ws := got.Match(v), want.Match(v)
		if (gs == nil) != (ws == nil) || gs != nil && gs.String() != ws.String() {
			t.Fatalf("%s: view %s:\n got  %v\n want %v", name, v.Name, gs, ws)
		}
		if gs != nil {
			subs = append(subs, gs)
			d.Substitutes++
			d.costing(name, gs)
		}
	}
	// Cost-then-build chooses what build-then-cost chose, against any limit.
	for _, limit := range []float64{math.Inf(1), 1e6, 1e3, 1} {
		wnode, wcost, wrows := c.oracleWinner(subs, groupBy, limit)
		p := c.substitutePlan(subs, groupBy, limit)
		if (p == nil) != (wnode == nil) {
			t.Fatalf("%s: limit %g: winner %v, want %v", name, limit, p, wnode)
		}
		if p != nil && (exec.Explain(p.node) != exec.Explain(wnode) || p.cost != wcost || p.rows != wrows) {
			t.Fatalf("%s: limit %g: cost %v rows %v\n%s\nwant cost %v rows %v\n%s", name, limit,
				p.cost, p.rows, exec.Explain(p.node), wcost, wrows, exec.Explain(wnode))
		}
	}
}

// costing checks what cost-before-build reads of a substitute: the exposed
// conjuncts are the CNF of the filter, and the selectivity computed from them
// over the view's frozen column statistics is bit for bit the one computed by
// translating the filter to the view's base columns and converting it again.
func (d *Differential) costing(name string, sub *core.Substitute) {
	d.T.Helper()
	cnf := []expr.Expr(nil)
	if sub.Filter != nil {
		cnf = expr.ToCNF(sub.Filter)
	}
	if !slices.EqualFunc(sub.Conjuncts(), cnf, expr.Equal) {
		d.T.Fatalf("%s: view %s: conjuncts %v, CNF of the filter %v", name, sub.View.Name, sub.Conjuncts(), cnf)
	}
	est := estimator{v: sub.View}
	sel := 1.0
	for _, cj := range sub.Conjuncts() {
		sel *= est.conjunctSelectivity(cj)
	}
	if want := oracleSelectivity(sub); math.Float64bits(sel) != math.Float64bits(want) {
		d.T.Fatalf("%s: view %s: selectivity %v, want %v", name, sub.View.Name, sel, want)
	}
}

// keysDiff names the first field two sets of query keys differ in; a nil set
// equals an empty one.
func keysDiff(a, b *core.QueryKeys) string {
	sets := func(a, b []lattice.Set) bool {
		return slices.EqualFunc(a, b, func(x, y lattice.Set) bool { return slices.Equal(x, y) })
	}
	switch {
	case !slices.Equal(a.SourceTables, b.SourceTables):
		return "SourceTables"
	case !sets(a.OutputClasses, b.OutputClasses):
		return "OutputClasses"
	case !slices.Equal(a.OutputExprsSPJ, b.OutputExprsSPJ):
		return "OutputExprsSPJ"
	case !slices.Equal(a.OutputExprsAgg, b.OutputExprsAgg):
		return "OutputExprsAgg"
	case !slices.Equal(a.Residuals, b.Residuals):
		return "Residuals"
	case !slices.Equal(a.ExtRangeCols, b.ExtRangeCols):
		return "ExtRangeCols"
	case !sets(a.GroupingClasses, b.GroupingClasses):
		return "GroupingClasses"
	case !slices.Equal(a.GroupingExprs, b.GroupingExprs):
		return "GroupingExprs"
	case a.IsAggregate != b.IsAggregate, a.ScalarAggregate != b.ScalarAggregate, a.SkipSPJ != b.SkipSPJ, a.SkipAgg != b.SkipAgg:
		return "flags"
	}
	return ""
}

func (d *Differential) Report() {
	d.T.Logf("%d memo groups and %d pre-aggregation blocks (%d of them degrade a range), %d substitutes", d.Groups, d.Blocks, d.Degraded, d.Substitutes)
}

// TestSubContextHandWritten covers what the generators do not produce:
// duplicate table instances, a check-constrained table, an OR-of-range
// residual, a range that degrades to a residual in one subset and not in its
// superset, a cross-table expression output and grouping key.
func TestSubContextHandWritten(t *testing.T) {
	base := db(t).Catalog
	intCol := func(name string) catalog.Column {
		return catalog.Column{Name: name, Type: sqlvalue.KindInt, NotNull: true, Distinct: 100}
	}
	// ck(a, b, c) carries CHECK (a <= 50) and CHECK (b = c); mixed(x, y) is
	// compared with constants of two kinds.
	ck := &catalog.Table{Name: "ck", Columns: []catalog.Column{intCol("a"), intCol("b"), intCol("c")}, RowCount: 1000,
		Checks: []catalog.CheckConstraint{
			{Name: "a_max", Expr: expr.NewCmp(expr.LE, expr.Col(0, 0), expr.CInt(50))},
			{Name: "b_is_c", Expr: expr.Eq(expr.Col(0, 1), expr.Col(0, 2))},
		}}
	mixed := &catalog.Table{Name: "mixed", Columns: []catalog.Column{intCol("x"), intCol("y")}, RowCount: 1000}
	cat := catalog.New()
	for _, tbl := range append(base.Tables(), ck, mixed) {
		if err := cat.Add(tbl); err != nil {
			t.Fatal(err)
		}
	}
	tab := func(name string) spjg.TableRef { return spjg.TableRef{Table: cat.Table(name)} }
	col := func(tb, c int, name string) spjg.OutputColumn {
		return spjg.OutputColumn{Name: name, Expr: expr.Col(tb, c)}
	}
	o := NewOptimizer(cat, DefaultOptions())
	views := map[string]*spjg.Query{
		// Something for each case to match, so substitutes are compared too.
		"v_nation2": {
			Tables: []spjg.TableRef{tab("customer"), tab("nation"), tab("supplier"), tab("nation")},
			Where: expr.NewAnd(
				expr.Eq(expr.Col(0, tpch.CNationkey), expr.Col(1, tpch.NNationkey)),
				expr.Eq(expr.Col(2, tpch.SNationkey), expr.Col(3, tpch.NNationkey))),
			Outputs: []spjg.OutputColumn{col(0, tpch.CCustkey, "c"), col(1, tpch.NName, "cn"), col(2, tpch.SSuppkey, "s"),
				col(3, tpch.NName, "sn"), col(1, tpch.NNationkey, "ck"), col(3, tpch.NNationkey, "sk")},
		},
		"v_ck":    {Tables: []spjg.TableRef{tab("ck")}, Outputs: []spjg.OutputColumn{col(0, 0, "a"), col(0, 1, "b")}},
		"v_mixed": {Tables: []spjg.TableRef{tab("mixed")}, Outputs: []spjg.OutputColumn{col(0, 0, "x"), col(0, 1, "y")}},
		"v_lo": {
			Tables:  []spjg.TableRef{tab("lineitem"), tab("orders")},
			Where:   expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			Outputs: []spjg.OutputColumn{col(0, tpch.LOrderkey, "ok"), col(0, tpch.LQuantity, "q"), col(1, tpch.OTotalprice, "p"), col(0, tpch.LPartkey, "pk"), col(1, tpch.OCustkey, "ck")},
		},
		"v_part_sum": {
			Tables:  []spjg.TableRef{tab("lineitem")},
			GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey), expr.Col(0, tpch.LOrderkey)},
			Outputs: []spjg.OutputColumn{col(0, tpch.LPartkey, "pk"), col(0, tpch.LOrderkey, "ok"),
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "q", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}}},
		},
	}
	for _, name := range []string{"v_nation2", "v_ck", "v_mixed", "v_lo", "v_part_sum"} {
		if _, err := o.RegisterView(name, views[name]); err != nil {
			t.Fatal(err)
		}
	}

	d := &Differential{T: t, O: o}
	d.Query("duplicate instances", &spjg.Query{
		Tables: []spjg.TableRef{tab("customer"), tab("nation"), tab("supplier"), tab("nation")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.CNationkey), expr.Col(1, tpch.NNationkey)),
			expr.Eq(expr.Col(2, tpch.SNationkey), expr.Col(3, tpch.NNationkey)),
			expr.NewCmp(expr.LT, expr.Col(1, tpch.NNationkey), expr.Col(3, tpch.NNationkey)),
			expr.NewCmp(expr.GE, expr.Col(3, tpch.NNationkey), expr.CInt(3))),
		Outputs: []spjg.OutputColumn{col(0, tpch.CCustkey, "c"), col(1, tpch.NName, "cn"), col(3, tpch.NName, "sn")},
	})
	d.Query("check constraints", &spjg.Query{
		Tables: []spjg.TableRef{tab("ck"), tab("mixed"), tab("ck")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, 0), expr.Col(1, 0)),
			expr.Eq(expr.Col(1, 1), expr.Col(2, 1)),
			expr.NewCmp(expr.GT, expr.Col(2, 0), expr.CInt(10))),
		Outputs: []spjg.OutputColumn{col(0, 1, "b"), col(1, 1, "y"), col(2, 2, "c")},
	})
	orRange := expr.NewOr(expr.NewCmp(expr.LT, expr.Col(0, tpch.LQuantity), expr.CInt(5)), expr.NewCmp(expr.GT, expr.Col(0, tpch.LQuantity), expr.CInt(40)))
	d.Query("OR of ranges", &spjg.Query{
		Tables: []spjg.TableRef{tab("lineitem"), tab("orders"), tab("customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
			orRange,
			expr.NewOr(expr.NewCmp(expr.LT, expr.Col(1, tpch.OTotalprice), expr.CInt(100)), expr.NewCmp(expr.GT, expr.Col(2, tpch.CAcctbal), expr.CInt(0))),
			expr.Like{E: expr.Col(2, tpch.CName), Pattern: expr.CStr("%a%")}),
		Outputs: []spjg.OutputColumn{col(0, tpch.LQuantity, "q"), col(1, tpch.OTotalprice, "p"), col(2, tpch.CName, "n")},
	})
	// x of instance 0 gets an integer bound, y of instance 1 a string bound,
	// x of instance 2 an integer bound. With 0.x = 1.y the string bound is
	// incomparable and degrades in {0,1}; in {0,1,2} with also 2.x = 0.x the
	// class collects 0.x > 5 first, so it is again 1.y's bound that degrades
	// — but in {1,2}, where 1.y = 2.x binds them without instance 0, it is
	// 2.x's integer bound, later in the predicate, that does.
	before := d.Degraded
	d.Query("degrading range", &spjg.Query{
		Tables: []spjg.TableRef{tab("mixed"), tab("mixed"), tab("mixed")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, 0), expr.Col(1, 1)),
			expr.Eq(expr.Col(1, 1), expr.Col(2, 0)),
			expr.NewCmp(expr.GT, expr.Col(0, 0), expr.CInt(5)),
			expr.NewCmp(expr.LT, expr.Col(1, 1), expr.CStr("m")),
			expr.NewCmp(expr.LT, expr.Col(2, 0), expr.CInt(9))),
		Outputs: []spjg.OutputColumn{col(0, 0, "x0"), col(1, 1, "y1"), col(2, 1, "y2")},
	})
	if d.Degraded == before {
		t.Fatal("no subexpression degraded a range conjunct")
	}
	cross := expr.NewArith(expr.Mul, expr.Col(0, tpch.LQuantity), expr.Col(1, tpch.OTotalprice))
	d.Query("cross-table output", &spjg.Query{
		Tables: []spjg.TableRef{tab("lineitem"), tab("orders"), tab("customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey))),
		Outputs: []spjg.OutputColumn{{Name: "v", Expr: cross}, col(2, tpch.CName, "n")},
	})
	d.Query("cross-table grouping key and sum", &spjg.Query{
		Tables: []spjg.TableRef{tab("lineitem"), tab("orders"), tab("customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey))),
		GroupBy: []expr.Expr{cross, expr.Col(2, tpch.CNationkey), expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{{Name: "v", Expr: cross}, col(2, tpch.CNationkey, "nk"), col(0, tpch.LPartkey, "pk"),
			{Name: "s", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: cross}},
			{Name: "a", Agg: &spjg.Aggregate{Kind: spjg.AggAvg, Arg: expr.Col(0, tpch.LQuantity)}},
			{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}}},
	})
	d.Query("rollup over a join", &spjg.Query{
		Tables:  []spjg.TableRef{tab("lineitem"), tab("part")},
		Where:   expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(1, tpch.PPartkey)),
		GroupBy: []expr.Expr{expr.Col(1, tpch.PBrand)},
		Outputs: []spjg.OutputColumn{col(1, tpch.PBrand, "b"),
			{Name: "q", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}}},
	})
	d.Report()
	if d.Blocks == 0 || d.Substitutes == 0 {
		t.Fatal("the cases exercise too little")
	}
}
