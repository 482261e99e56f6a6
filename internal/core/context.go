package core

import (
	"math/bits"
	"slices"
	"strings"

	"matview/internal/eqclass"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// QueryContext is the query side of the view-matching rule: everything the
// filter-tree search and the §3 tests need that depends on the query
// expression alone, computed once and then read by every candidate's match.
// It lives in the query's own table-instance space; a candidate view's
// instance alignment is applied as an index translation, not by rewriting the
// query. The context of a query also yields the contexts of its
// subexpressions (Sub), which share its analysis and table numbering. A
// context is used by one goroutine.
type QueryContext struct {
	m *Matcher
	// tables is the FROM list that column references index; tabs lists, in
	// ascending order, the instances that belong to the expression — all of
	// them for a query's own context, a subset for a subexpression's.
	tables  []spjg.TableRef
	tabs    []int
	outputs []spjg.OutputColumn
	groupBy []expr.Expr
	a       *spjg.Analysis

	isAgg bool
	// dupTables is set when some base table occurs more than once among the
	// expression's instances; byName then lists them by table name.
	dupTables bool
	byName    []int
	// ors lists the residual conjuncts that are disjunctions of range
	// predicates.
	ors []orRanges
	// outs holds, per output, the fingerprint of the normalized form of a
	// complex scalar output or of a SUM/AVG argument, columns in the query's
	// space (zero for any other output, empty when no output has one); groups
	// holds one per grouping expression.
	outs, groups []expr.Fingerprint

	// keys is built by Keys on first use (keysOK); keyArena backs its column
	// sets and colBase holds the dictionary id of column 0 per table instance.
	keys     QueryKeys
	keysOK   bool
	keyArena []uint64
	colBase  []int

	sub *subContext // built by Sub on first use
}

// spansTables reports whether the columns of a fingerprint come from more
// than one table instance. Normalize breaks ties between operands of equal
// text by their column references, so the operand order of such an expression
// can differ once the instances are renumbered to a view's; see
// matchState.orderPreserved.
func spansTables(cols []expr.ColRef) bool {
	for _, c := range cols {
		if c.Tab != cols[0].Tab {
			return true
		}
	}
	return false
}

// NewQueryContext analyses a query expression for one optimization: the
// context serves the view-matching rule on the query itself and, through Sub,
// on its subexpressions. The query must have passed spjg validation and must
// not change while the context is in use.
func (m *Matcher) NewQueryContext(q *spjg.Query) *QueryContext {
	a := spjg.Analyze(q, m.opts.UseCheckConstraints)
	n := len(q.Tables)
	ints := make([]int, 2*n)
	qc := &QueryContext{m: m, tables: q.Tables, tabs: ints[:n:n], colBase: ints[n:],
		outputs: q.Outputs, groupBy: q.GroupBy, a: a, isAgg: q.IsAggregate()}
	for i := range qc.tabs {
		qc.tabs[i] = i
		qc.dupTables = qc.dupTables || qc.occurrence(i) > 0
	}
	qc.ors = scanOrRanges(a.PU)
	qc.fingerprint(nil)
	return qc
}

// fingerprint fills outs and groups. fps, when given, holds ready-made
// fingerprints by output — and so by grouping expression where, as in a
// subexpression, the grouping list is the head of the output list; what it
// leaves nil is computed.
func (qc *QueryContext) fingerprint(fps []*expr.Fingerprint) {
	form := func(i int, e expr.Expr) expr.Fingerprint {
		if fps != nil && fps[i] != nil {
			return *fps[i]
		}
		if col, ok := e.(expr.Column); ok {
			return expr.Fingerprint{Text: "?", Cols: []expr.ColRef{col.Ref}}
		}
		return expr.NewFingerprint(expr.Normalize(e))
	}
	qc.outs, qc.groups = qc.outs[:0], slices.Grow(qc.groups[:0], len(qc.groupBy))
	for i, o := range qc.outputs {
		var fp expr.Fingerprint
		switch e := o.Expr.(type) {
		case expr.Column, expr.Const:
		case nil:
			if o.Agg != nil && o.Agg.Arg != nil {
				fp = form(i, o.Agg.Arg)
			}
		default:
			fp = form(i, e)
		}
		if fp.Text != "" {
			if len(qc.outs) == 0 { // the first one; plain-column output lists keep none
				qc.outs = slices.Grow(qc.outs, len(qc.outputs))[:len(qc.outputs)]
				clear(qc.outs)
			}
			qc.outs[i] = fp
		}
	}
	for i, g := range qc.groupBy {
		qc.groups = append(qc.groups, form(i, g))
	}
}

// Analysis returns the analysis of the context's expression. It is shared,
// read-only, and for a subexpression's context valid until the next Sub.
func (qc *QueryContext) Analysis() *spjg.Analysis { return qc.a }

// OutputFP returns the fingerprint the context keeps of output i (see outs),
// nil when it keeps none; GroupFP the one of grouping expression i. They are
// read-only.
func (qc *QueryContext) OutputFP(i int) *expr.Fingerprint {
	if len(qc.outs) == 0 || qc.outs[i].Text == "" {
		return nil
	}
	return &qc.outs[i]
}

func (qc *QueryContext) GroupFP(i int) *expr.Fingerprint { return &qc.groups[i] }

// occurrence returns how many of the expression's instances before tabs[k]
// reference the same base table as tabs[k].
func (qc *QueryContext) occurrence(k int) int {
	n := 0
	for _, u := range qc.tabs[:k] {
		if qc.tables[u].Table.Name == qc.tables[qc.tabs[k]].Table.Name {
			n++
		}
	}
	return n
}

// tablesByName returns the expression's table instances ordered by table
// name, FROM order within a name.
func (qc *QueryContext) tablesByName() []int {
	if len(qc.byName) == 0 {
		qc.byName = append(qc.byName, qc.tabs...)
		slices.SortStableFunc(qc.byName, func(a, b int) int {
			return strings.Compare(qc.tables[a].Table.Name, qc.tables[b].Table.Name)
		})
	}
	return qc.byName
}

// subContext is the storage behind Sub: the one subexpression context a query
// context hands out, derived again on every call.
type subContext struct {
	qc QueryContext
	a  spjg.Analysis
	ec eqclass.Classes
}

// within reports whether every column belongs to a table instance in mask.
func within(mask uint64, cols ...expr.ColRef) bool {
	for _, c := range cols {
		if mask&(1<<uint(c.Tab)) == 0 {
			return false
		}
	}
	return true
}

// Sub returns the context of a subexpression of qc's query: the table
// instances in mask, every conjunct of the predicate (and of the folded check
// constraints) that references only those, and the given output list, whose
// first groups entries are also the grouping list. fps, if not nil, holds per
// output the fingerprint qc keeps of it (OutputFP, GroupFP) where it keeps one.
//
// The subexpression is never written out. Its predicate components are the
// query's, selected by mask: equalities are replayed in predicate order into
// pooled classes, ranges folded again under those (one that is incomparable
// with the bounds accumulated inside the subset degrades to a residual there),
// normalized residuals and fingerprints reused. Columns keep the query's table
// numbering; up to that, the result equals the context of the subexpression
// analysed as a query of its own. It is valid until the next Sub.
func (qc *QueryContext) Sub(mask uint64, outputs []spjg.OutputColumn, groups int, fps []*expr.Fingerprint) *QueryContext {
	if qc.sub == nil {
		qc.sub = &subContext{}
	}
	s, pa := qc.sub, qc.a
	sc, a := &s.qc, &s.a
	sc.m, sc.tables, sc.a = qc.m, qc.tables, a

	sc.tabs, sc.byName, sc.dupTables = sc.tabs[:0], sc.byName[:0], false
	for m := mask; m != 0; m &= m - 1 {
		sc.tabs = append(sc.tabs, bits.TrailingZeros64(m))
		sc.dupTables = sc.dupTables || sc.occurrence(len(sc.tabs)-1) > 0
	}

	a.PE, a.EC = a.PE[:0], &s.ec
	s.ec.ResetLike(pa.EC)
	for _, eq := range pa.PE {
		if within(mask, eq.A, eq.B) {
			a.PE = append(a.PE, eq)
			s.ec.Union(eq.A, eq.B)
		}
	}

	a.PU, a.ResidualFPs, sc.ors = a.PU[:0], a.ResidualFPs[:0], sc.ors[:0]
	por := qc.ors
	for i, fp := range pa.ResidualFPs[:pa.NResidual] {
		isOr := len(por) > 0 && por[0].pu == i
		if within(mask, fp.Cols...) {
			if isOr {
				sc.ors = append(sc.ors, por[0])
				sc.ors[len(sc.ors)-1].pu = len(a.PU)
			}
			a.PU = append(a.PU, pa.PU[i])
			a.ResidualFPs = append(a.ResidualFPs, fp)
		}
		if isOr {
			por = por[1:]
		}
	}
	a.NResidual = len(a.PU)
	a.Ranges, a.Contradiction = a.Ranges[:0], false
	for _, rc := range pa.PR {
		if within(mask, rc.Col) && !a.AddRange(rc) {
			pu := expr.Normalize(rc.Expr())
			a.PU, a.ResidualFPs = append(a.PU, pu), append(a.ResidualFPs, expr.NewFingerprint(pu))
		}
	}

	sc.outputs, sc.groupBy, sc.isAgg, sc.keysOK = outputs, sc.groupBy[:0], groups > 0, false
	for i, o := range outputs {
		sc.isAgg = sc.isAgg || o.Agg != nil
		if i < groups {
			sc.groupBy = append(sc.groupBy, o.Expr)
		}
	}
	sc.fingerprint(fps)
	return sc
}

// Match decides whether the query expression can be computed from the view
// and, if so, returns the substitute expression; it returns nil otherwise.
// The query must have passed spjg validation. It analyses the query on every
// call; the rule's call site builds one QueryContext and matches every
// candidate against it.
func (m *Matcher) Match(q *spjg.Query, v *View) *Substitute {
	return m.NewQueryContext(q).Match(v)
}
