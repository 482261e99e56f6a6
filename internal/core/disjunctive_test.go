package core

import (
	"testing"

	"matview/internal/expr"
	"matview/internal/ranges"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/tpch"
)

func orPred(col int, parts ...[2]int64) expr.Expr {
	var ds []expr.Expr
	for _, p := range parts {
		ds = append(ds, expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col(0, col), expr.CInt(p[0])),
			expr.NewCmp(expr.LE, expr.Col(0, col), expr.CInt(p[1])),
		))
	}
	return expr.NewOr(ds...)
}

func TestOrRangesRecognition(t *testing.T) {
	q := &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{{Expr: expr.Col(0, 0)}},
	}
	a := spjg.Analyze(q, false)
	// classes interprets one conjunct under a's classes.
	classes := func(a *spjg.Analysis, conjunct expr.Expr) []classDisjunction {
		var d disjunctions
		d.scan(scanOrRanges([]expr.Expr{conjunct}), a.EC, a.EC.Offsets(), 0)
		return d.entries
	}

	// (k >= 1 AND k <= 5) is an AND, so CNF splits it; use pure disjunctions
	// of atomic ranges here.
	or := expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(5)),
		expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(10)),
	)
	got := classes(a, or)
	if len(got) != 1 {
		t.Fatal("OR of ranges not recognized")
	}
	if a.EC.Ref(got[0].rep) != (expr.ColRef{Tab: 0, Col: tpch.LPartkey}) {
		t.Errorf("rep = %v", a.EC.Ref(got[0].rep))
	}
	if len(got[0].set.Parts()) != 2 {
		t.Errorf("set = %v", got[0].set)
	}

	// Mixed columns in different classes: rejected.
	bad := expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(5)),
		expr.NewCmp(expr.GT, expr.Col(0, tpch.LSuppkey), expr.CInt(10)),
	)
	if len(classes(a, bad)) != 0 {
		t.Error("cross-class OR recognized as range set")
	}

	// Non-range disjunct: rejected.
	bad2 := expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(5)),
		expr.Like{E: expr.Col(0, tpch.LComment), Pattern: expr.CStr("%x%")},
	)
	if len(scanOrRanges([]expr.Expr{bad2})) != 0 {
		t.Error("OR with non-range disjunct recognized")
	}

	// Equivalent columns across a class: accepted.
	q2 := &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem"), tref("orders")},
		Where:  expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		Outputs: []spjg.OutputColumn{
			{Expr: expr.Col(0, tpch.LOrderkey)},
		},
	}
	a2 := spjg.Analyze(q2, false)
	cross := expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(0, tpch.LOrderkey), expr.CInt(5)),
		expr.NewCmp(expr.GT, expr.Col(1, tpch.OOrderkey), expr.CInt(10)),
	)
	if len(classes(a2, cross)) != 1 {
		t.Error("same-class OR across tables rejected")
	}
}

func disjView(t *testing.T, m *Matcher, id int, pred expr.Expr) *View {
	t.Helper()
	return mustView(t, m, id, "v", &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where:  pred,
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
		},
	})
}

func disjQuery(t *testing.T, pred expr.Expr) *spjg.Query {
	t.Helper()
	return mustValidate(t, &spjg.Query{
		Tables: []spjg.TableRef{tref("lineitem")},
		Where:  pred,
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	})
}

func TestDisjunctiveContainment(t *testing.T) {
	m := defaultMatcher()
	lpLT := func(c int64) expr.Expr { return expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(c)) }
	lpGT := func(c int64) expr.Expr { return expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(c)) }

	// View: l_partkey < 100 OR l_partkey > 500.
	v := disjView(t, m, 0, expr.NewOr(lpLT(100), lpGT(500)))

	// Query inside one arm: l_partkey < 50. Must match; compensation is the
	// query's own range (the view's OR needs no reapplication beyond it).
	sub := m.Match(disjQuery(t, lpLT(50)), v)
	if sub == nil {
		t.Fatal("query inside one disjunct arm rejected")
	}

	// Query with the same OR: match with no extra compensation predicates.
	sub2 := m.Match(disjQuery(t, expr.NewOr(lpLT(100), lpGT(500))), v)
	if sub2 == nil {
		t.Fatal("identical OR predicate rejected")
	}
	if sub2.Filter != nil {
		t.Fatalf("identical OR should need no compensation: %v",
			expr.Render(sub2.Filter, sub2.OutputResolver()))
	}

	// Query with a narrower OR: match; the query's OR must be reapplied.
	sub3 := m.Match(disjQuery(t, expr.NewOr(lpLT(50), lpGT(600))), v)
	if sub3 == nil {
		t.Fatal("narrower OR rejected")
	}
	if sub3.Filter == nil {
		t.Fatal("narrower OR needs compensation")
	}

	// Query straddling the gap: l_partkey < 300 covers (100, 300) which the
	// view lacks → reject.
	if m.Match(disjQuery(t, lpLT(300)), v) != nil {
		t.Fatal("query needing the gap matched")
	}

	// Paper-prototype mode: the same narrower-OR query must be rejected
	// (no set reasoning, text mismatch).
	pm := paperMatcher()
	pv := disjView(t, pm, 1, expr.NewOr(lpLT(100), lpGT(500)))
	if pm.Match(disjQuery(t, expr.NewOr(lpLT(50), lpGT(600))), pv) != nil {
		t.Fatal("prototype mode performed set reasoning")
	}
	// But the identical OR still matches textually in prototype mode.
	if pm.Match(disjQuery(t, expr.NewOr(lpLT(100), lpGT(500))), pv) == nil {
		t.Fatal("prototype mode lost textual OR matching")
	}
}

func TestDisjunctiveViewOrQueryPlain(t *testing.T) {
	m := defaultMatcher()
	// View has an OR; query has only a plain range that the OR set does not
	// cover entirely → reject. Plain query range inside one arm → accept.
	v := disjView(t, m, 0, orPred(tpch.LPartkey, [2]int64{1, 100}, [2]int64{500, 600}))
	if m.Match(disjQuery(t, expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(600))), v) != nil {
		t.Fatal("gap not detected")
	}
	sub := m.Match(disjQuery(t, expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col(0, tpch.LPartkey), expr.CInt(510)),
		expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(590)),
	)), v)
	if sub == nil {
		t.Fatal("plain range inside an arm rejected")
	}
}

func TestDisjunctiveQueryOrOverPlainView(t *testing.T) {
	m := defaultMatcher()
	// View: plain l_partkey <= 1000. Query: an OR fully inside it (the CNF of
	// A OR (B AND C) gives two OR-of-range conjuncts on the class) → match,
	// with the query's disjunctions reapplied as compensation (requires
	// l_partkey in the output). An unbounded arm (l_partkey > 900 with no
	// upper bound) would correctly be rejected — the view lacks rows above
	// 1000.
	v := disjView(t, m, 0, expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(1000)))
	q := disjQuery(t, expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(100)),
		expr.NewAnd(
			expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(900)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(1000)),
		),
	))
	sub := m.Match(q, v)
	if sub == nil {
		t.Fatal("OR query over plain view rejected")
	}
	if sub.Filter == nil {
		t.Fatal("OR compensation missing")
	}
	// An unbounded upper arm must reject.
	unbounded := disjQuery(t, expr.NewOr(
		expr.NewCmp(expr.LT, expr.Col(0, tpch.LPartkey), expr.CInt(100)),
		expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(900)),
	))
	if m.Match(unbounded, v) != nil {
		t.Fatal("query arm escaping the view's range matched")
	}
	// Without l_partkey in the view output, compensation is impossible.
	v2 := mustView(t, m, 1, "v2", &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		Where:   expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(1000)),
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)}},
	})
	if m.Match(q, v2) != nil {
		t.Fatal("uncomputable OR compensation accepted")
	}
}

func TestDisjunctiveKeys(t *testing.T) {
	m := defaultMatcher()
	v := disjView(t, m, 0, orPred(tpch.LPartkey, [2]int64{1, 100}, [2]int64{500, 600}))
	// The OR must count as a range constraint, not a residual.
	if v.Keys.Residuals.Len() != 0 {
		t.Errorf("Residuals = %v, want empty", v.Keys.Residuals)
	}
	if !hasKey(m, v.Keys.RangeColsReduced, "lineitem.l_partkey") {
		t.Errorf("RangeColsReduced = %v", v.Keys.RangeColsReduced)
	}
	// Query side: OR class joins the extended range list.
	q := disjQuery(t, orPred(tpch.LPartkey, [2]int64{1, 50}))
	qk := m.ComputeQueryKeys(q)
	if !hasKey(m, qk.ExtRangeCols, "lineitem.l_partkey") {
		t.Errorf("ExtRangeCols = %v", qk.ExtRangeCols)
	}
	if qk.Residuals.Len() != 0 {
		t.Errorf("query Residuals = %v, want empty", qk.Residuals)
	}
}

func TestIntervalSetIntersect(t *testing.T) {
	mk := func(lo, hi int64) ranges.Range {
		r, _ := ranges.Universal().Apply(expr.GE, intVal(lo))
		r, _ = r.Apply(expr.LE, intVal(hi))
		return r
	}
	a := ranges.NewIntervalSet(mk(0, 10), mk(20, 30))
	b := ranges.NewIntervalSet(mk(5, 25))
	x := a.IntersectSet(b)
	if len(x.Parts()) != 2 {
		t.Fatalf("intersection = %v", x)
	}
	if !x.Admits(intVal(7)) || !x.Admits(intVal(22)) || x.Admits(intVal(15)) {
		t.Fatalf("intersection admission wrong: %v", x)
	}
	if !a.IntersectSet(ranges.NewIntervalSet(mk(100, 200))).Empty() {
		t.Fatal("disjoint intersection not empty")
	}
}

func intVal(i int64) sqlvalue.Value { return sqlvalue.NewInt(i) }
