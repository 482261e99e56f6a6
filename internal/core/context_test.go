package core

import (
	"sync"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/tpch"
)

// joinExpr builds "SELECT l_orderkey, l_quantity, o_totalprice FROM lineitem,
// orders WHERE l_orderkey = o_orderkey AND l_quantity <= maxQty [AND extra]".
func joinExpr(maxQty int64, extra ...expr.Expr) *spjg.Query {
	preds := append([]expr.Expr{
		expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		expr.NewCmp(expr.LE, expr.Col(0, tpch.LQuantity), expr.CInt(maxQty)),
	}, extra...)
	return &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:  expr.NewAnd(preds...),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	}
}

// matchCase is a registered view and an analysed query to match against it.
type matchCase struct {
	v  *View
	qc *QueryContext
}

// rejectCases are pairs that pass instance alignment and fail at the equijoin
// or the range subsumption test.
func rejectCases(t testing.TB, m *Matcher) map[string]matchCase {
	mk := func(id int, view, query *spjg.Query) matchCase {
		v, err := m.NewView(id, "v", view)
		if err != nil {
			t.Fatal(err)
		}
		return matchCase{v, m.NewQueryContext(query)}
	}
	return map[string]matchCase{
		// The view equates two columns the query does not.
		"equijoin": mk(0, joinExpr(50, expr.Eq(expr.Col(0, tpch.LShipdate), expr.Col(0, tpch.LCommitdate))), joinExpr(10)),
		// The view keeps quantities up to 10, the query needs up to 20.
		"range": mk(1, joinExpr(10), joinExpr(20)),
	}
}

func BenchmarkMatchReject(b *testing.B) {
	m := defaultMatcher()
	c := rejectCases(b, m)["range"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.qc.Match(c.v) != nil {
			b.Fatal("matched")
		}
	}
}

func BenchmarkMatchAccept(b *testing.B) {
	m := defaultMatcher()
	v, err := m.NewView(0, "v", joinExpr(50))
	if err != nil {
		b.Fatal(err)
	}
	qc := m.NewQueryContext(joinExpr(20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if qc.Match(v) == nil {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkQueryContext is the per-invocation cost: one analysis of the
// expression plus its filter-tree keys.
func BenchmarkQueryContext(b *testing.B) {
	m := defaultMatcher()
	if _, err := m.NewView(0, "v", example3View()); err != nil {
		b.Fatal(err)
	}
	queries := []*spjg.Query{joinExpr(20), example3Query(), aggView([]int{tpch.LPartkey}, []int{tpch.LQuantity}, nil)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.NewQueryContext(queries[i%len(queries)]).Keys()
	}
}

// threeWay is customer ⋈ orders ⋈ lineitem with a range on each of two
// tables and a residual; subOutputs lists the columns it references per table
// instance, the output list of a subexpression over some of them.
func threeWay() (*spjg.Query, [][]spjg.OutputColumn) {
	q := &spjg.Query{
		Tables: []spjg.TableRef{tref("customer"), tref("orders"), tref("lineitem")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.CCustkey), expr.Col(1, tpch.OCustkey)),
			expr.Eq(expr.Col(1, tpch.OOrderkey), expr.Col(2, tpch.LOrderkey)),
			expr.NewCmp(expr.LE, expr.Col(2, tpch.LQuantity), expr.CInt(20)),
			expr.NewCmp(expr.GE, expr.Col(1, tpch.OTotalprice), expr.CInt(1000)),
			expr.NewCmp(expr.NE, expr.Col(2, tpch.LShipdate), expr.Col(2, tpch.LCommitdate)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "c_name", Expr: expr.Col(0, tpch.CName)},
			{Name: "l_quantity", Expr: expr.Col(2, tpch.LQuantity)},
		},
	}
	cols := [][]int{{tpch.CCustkey, tpch.CName}, {tpch.OOrderkey, tpch.OCustkey, tpch.OTotalprice},
		{tpch.LOrderkey, tpch.LQuantity, tpch.LShipdate, tpch.LCommitdate}}
	outs := make([][]spjg.OutputColumn, len(cols))
	for t, cs := range cols {
		for _, c := range cs {
			outs[t] = append(outs[t], spjg.OutputColumn{Name: q.Tables[t].Table.Columns[c].Name, Expr: expr.Col(t, c)})
		}
	}
	return q, outs
}

// subOf is what the optimizer's memo loop does per subexpression: the context
// of the tables in mask with their referenced columns as outputs.
func subOf(qc *QueryContext, outs [][]spjg.OutputColumn, buf []spjg.OutputColumn, mask uint64) (*QueryContext, []spjg.OutputColumn) {
	buf = buf[:0]
	for t := range outs {
		if mask&(1<<t) != 0 {
			buf = append(buf, outs[t]...)
		}
	}
	return qc.Sub(mask, buf, 0, nil), buf
}

var threeWayMasks = []uint64{1, 2, 4, 3, 6, 7}

// BenchmarkSubContext is the per-invocation cost inside the optimizer's memo
// loop: a subexpression's context derived from the query's one analysis, plus
// its filter-tree keys. Compare BenchmarkQueryContext, an analysis from
// nothing.
func BenchmarkSubContext(b *testing.B) {
	m := defaultMatcher()
	if _, err := m.NewView(0, "v", example3View()); err != nil {
		b.Fatal(err)
	}
	q, outs := threeWay()
	qc := m.NewQueryContext(q)
	var buf []spjg.OutputColumn
	var sub *QueryContext
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, buf = subOf(qc, outs, buf, threeWayMasks[i%len(threeWayMasks)])
		sub.Keys()
	}
}

// A subexpression's context equals the context of the subexpression written
// out as a query — here {orders, lineitem} of threeWay, renumbered 0 and 1 —
// in every match it decides. (internal/opt's differential tests compare the
// analyses field by field over whole workloads.)
func TestSubContextMatchesWrittenOutQuery(t *testing.T) {
	m := defaultMatcher()
	view := &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(1, tpch.OOrderkey), expr.Col(0, tpch.LOrderkey)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LQuantity), expr.CInt(30))),
		Outputs: []spjg.OutputColumn{
			{Name: "ok", Expr: expr.Col(0, tpch.LOrderkey)}, {Name: "q", Expr: expr.Col(0, tpch.LQuantity)},
			{Name: "ck", Expr: expr.Col(1, tpch.OCustkey)}, {Name: "p", Expr: expr.Col(1, tpch.OTotalprice)},
			{Name: "s", Expr: expr.Col(0, tpch.LShipdate)}, {Name: "c", Expr: expr.Col(0, tpch.LCommitdate)},
		},
	}
	v := mustView(t, m, 0, "lo", view)
	q, outs := threeWay()
	sub, _ := subOf(m.NewQueryContext(q), outs, nil, 6)
	written := &spjg.Query{
		Tables: q.Tables[1:],
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.OOrderkey), expr.Col(1, tpch.LOrderkey)),
			expr.NewCmp(expr.LE, expr.Col(1, tpch.LQuantity), expr.CInt(20)),
			expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(1000)),
			expr.NewCmp(expr.NE, expr.Col(1, tpch.LShipdate), expr.Col(1, tpch.LCommitdate)),
		),
	}
	for lt, t0 := range []int{1, 2} {
		for _, o := range outs[t0] {
			written.Outputs = append(written.Outputs, spjg.OutputColumn{Name: o.Name, Expr: expr.Col(lt, o.Expr.(expr.Column).Ref.Col)})
		}
	}
	want := m.NewQueryContext(mustValidate(t, written)).Match(v)
	got := sub.Match(v)
	if want == nil || got == nil || got.String() != want.String() {
		t.Fatalf("substitute from the derived context:\n %v\nfrom the written-out query:\n %v", got, want)
	}
	if len(got.Conjuncts()) != 3 { // l_quantity <= 20, o_totalprice >= 1000, the residual
		t.Fatalf("compensating conjuncts %v", got.Conjuncts())
	}
}

// One frozen view matched from many goroutines. The view's equalities form a
// depth-2 union chain (a=b, c=d, b=d) and all its outputs are expressions, so
// registration never has a reason to resolve a column through the classes;
// under -race this fails if any read path writes to the shared view.
func TestConcurrentMatchOnFrozenView(t *testing.T) {
	m := defaultMatcher()
	sum := func(a, b int) expr.Expr { return expr.NewArith(expr.Add, expr.Col(0, a), expr.Col(0, b)) }
	chain := expr.NewAnd(
		expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(0, tpch.LPartkey)),
		expr.Eq(expr.Col(0, tpch.LSuppkey), expr.Col(0, tpch.LLinenumber)),
		expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(0, tpch.LLinenumber)),
	)
	def := &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where:  chain,
		Outputs: []spjg.OutputColumn{
			{Name: "a", Expr: sum(tpch.LOrderkey, tpch.LQuantity)},
			{Name: "b", Expr: sum(tpch.LSuppkey, tpch.LQuantity)},
		},
	}
	v := mustView(t, m, 0, "chain", def)
	// The query spells the same classes through different pairs, and its
	// expression is over another member of the class than the view's.
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LLinenumber), expr.Col(0, tpch.LOrderkey)),
			expr.Eq(expr.Col(0, tpch.LLinenumber), expr.Col(0, tpch.LSuppkey)),
			expr.Eq(expr.Col(0, tpch.LLinenumber), expr.Col(0, tpch.LPartkey)),
		),
		Outputs: []spjg.OutputColumn{{Name: "a", Expr: sum(tpch.LLinenumber, tpch.LQuantity)}},
	})
	want := m.Match(q, v)
	if want == nil {
		t.Fatal("chain view does not match; test is vacuous")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := m.Match(q, v); got == nil || got.String() != want.String() {
					t.Errorf("concurrent match = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A query expression spanning table instances is normalized in the query's
// instance numbering; when a view lists the same tables in another order,
// operands of equal text rank differently. The match must still see the
// expressions the view-space query would have.
func TestCrossTableExpressionUnderReorderedInstances(t *testing.T) {
	m := defaultMatcher()
	join := func(l, o int) expr.Expr { return expr.Eq(expr.Col(l, tpch.LOrderkey), expr.Col(o, tpch.OOrderkey)) }
	late := func(l, o int) expr.Expr {
		return expr.NewCmp(expr.GT, expr.Col(l, tpch.LShipdate), expr.Col(o, tpch.OOrderdate))
	}
	total := func(l, o int) expr.Expr {
		return expr.NewArith(expr.Add, expr.Col(l, tpch.LExtendedprice), expr.Col(o, tpch.OTotalprice))
	}
	// View: orders is instance 0, lineitem instance 1.
	v := mustView(t, m, 0, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("orders"), tref("lineitem")},
		Where:  expr.NewAnd(join(1, 0), late(1, 0)),
		Outputs: []spjg.OutputColumn{
			{Name: "k", Expr: expr.Col(1, tpch.LOrderkey)},
			{Name: "total", Expr: total(1, 0)},
		},
	})
	// Query: lineitem is instance 0, orders instance 1.
	q := mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:  expr.NewAnd(join(0, 1), late(0, 1)),
		Outputs: []spjg.OutputColumn{
			{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "total", Expr: total(0, 1)},
		},
	})
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("view with reordered instances rejected")
	}
	if sub.Filter != nil {
		t.Errorf("residual matched, so no compensation is needed; got %v", sub.Filter)
	}
	if got := sub.String(); got != "SELECT v.k AS k, v.total AS total FROM v" {
		t.Errorf("substitute = %s", got)
	}
}

// A view's extra table brings its check constraints into the view's
// analysis; a query that does not mention the table must acquire them with
// the table (§3.2) or the range test would see a constraint only on the view.
func TestExtraTableCheckConstraints(t *testing.T) {
	c := catalog.New()
	add := func(tb *catalog.Table) {
		t.Helper()
		if err := c.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	add(&catalog.Table{
		Name: "dim",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "weight", Type: sqlvalue.KindInt, NotNull: true},
		},
		PrimaryKey: []int{0},
		Checks: []catalog.CheckConstraint{
			{Name: "weight_pos", Expr: expr.NewCmp(expr.GE, expr.Col(0, 1), expr.CInt(0))},
			{Name: "weight_odd", Expr: expr.Like{E: expr.Col(0, 1), Pattern: expr.CStr("%1")}},
		},
		RowCount: 10,
	})
	add(&catalog.Table{
		Name: "fact",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "dim_id", Type: sqlvalue.KindInt, NotNull: true},
		},
		PrimaryKey: []int{0},
		Foreign:    []catalog.ForeignKey{{Name: "fk", Columns: []int{1}, RefTable: "dim", RefColumns: []int{0}}},
		RowCount:   1000,
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	view := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("fact")}, {Table: c.Table("dim")}},
		Where:   expr.Eq(expr.Col(0, 1), expr.Col(1, 0)),
		Outputs: []spjg.OutputColumn{{Name: "id", Expr: expr.Col(0, 0)}},
	}
	query := &spjg.Query{
		Tables:  []spjg.TableRef{{Table: c.Table("fact")}},
		Outputs: []spjg.OutputColumn{{Name: "id", Expr: expr.Col(0, 0)}},
	}
	for _, opts := range []MatchOptions{DefaultOptions(), {}} {
		m := NewMatcher(c, opts)
		v, err := m.NewView(0, "v", view)
		if err != nil {
			t.Fatal(err)
		}
		sub := m.Match(query, v)
		if sub == nil {
			t.Fatalf("UseCheckConstraints=%v: cardinality-preserving join to a checked table rejected", opts.UseCheckConstraints)
		}
		if sub.Filter != nil {
			t.Errorf("UseCheckConstraints=%v: compensation %v for constraints the view enforces itself", opts.UseCheckConstraints, sub.Filter)
		}
	}
}
