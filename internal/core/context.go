package core

import (
	"slices"
	"strings"

	"matview/internal/expr"
	"matview/internal/spjg"
)

// QueryContext is the query side of one invocation of the view-matching rule:
// everything the filter-tree search and the §3 tests need that depends on the
// query expression alone, computed once and then read by every candidate's
// match. It lives in the query's own table-instance space; a candidate view's
// instance alignment is applied as an index translation, not by rewriting the
// query. A context is used by one goroutine.
type QueryContext struct {
	m *Matcher
	q *spjg.Query
	a *spjg.Analysis

	isAgg bool
	// dupTables is set when some base table occurs more than once in the
	// FROM list; byName then lists the table instances by table name.
	dupTables bool
	byName    []int
	// ors lists the residual conjuncts that are disjunctions of range
	// predicates.
	ors []orRanges
	// outs holds, per output, the fingerprint of a complex scalar output or
	// of a SUM/AVG argument (nil when every output is a plain column, as in
	// the optimizer's join subexpressions); groups holds one per grouping
	// expression.
	outs   []queryExpr
	groups []queryExpr

	keys *QueryKeys // built by Keys on first use
}

// queryExpr is the shallow-matching form of one query expression: the
// fingerprint of its normalized form, columns in the query's space.
type queryExpr struct {
	set bool
	fp  expr.Fingerprint
}

func newQueryExpr(e expr.Expr) queryExpr {
	if col, ok := e.(expr.Column); ok {
		return queryExpr{set: true, fp: expr.Fingerprint{Text: "?", Cols: []expr.ColRef{col.Ref}}}
	}
	return queryExpr{set: true, fp: expr.NewFingerprint(expr.Normalize(e))}
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

// NewQueryContext analyses a query expression for one invocation of the
// view-matching rule. The query must have passed spjg validation and must not
// change while the context is in use.
func (m *Matcher) NewQueryContext(q *spjg.Query) *QueryContext {
	a := spjg.Analyze(q, m.opts.UseCheckConstraints)
	qc := &QueryContext{m: m, q: q, a: a, isAgg: q.IsAggregate()}
	for i := range q.Tables {
		qc.dupTables = qc.dupTables || occurrence(q.Tables, i) > 0
	}
	qc.ors = scanOrRanges(a.PU)
	for i, o := range q.Outputs {
		var e expr.Expr // what to fingerprint: a complex scalar output or an aggregate's argument
		switch x := o.Expr.(type) {
		case expr.Column, expr.Const:
		case nil:
			if o.Agg != nil {
				e = o.Agg.Arg
			}
		default:
			e = x
		}
		if e == nil {
			continue
		}
		if qc.outs == nil {
			qc.outs = make([]queryExpr, len(q.Outputs))
		}
		qc.outs[i] = newQueryExpr(e)
	}
	if len(q.GroupBy) > 0 {
		qc.groups = make([]queryExpr, len(q.GroupBy))
		for i, g := range q.GroupBy {
			qc.groups[i] = newQueryExpr(g)
		}
	}
	return qc
}

// tablesByName returns the query's table instances ordered by table name,
// FROM order within a name.
func (qc *QueryContext) tablesByName() []int {
	if qc.byName == nil {
		qc.byName = make([]int, len(qc.q.Tables))
		for i := range qc.byName {
			qc.byName[i] = i
		}
		slices.SortStableFunc(qc.byName, func(a, b int) int {
			return strings.Compare(qc.q.Tables[a].Table.Name, qc.q.Tables[b].Table.Name)
		})
	}
	return qc.byName
}

// out returns the context's fingerprint for output i, nil when it keeps none.
func (qc *QueryContext) out(i int) *queryExpr {
	if qc.outs == nil || !qc.outs[i].set {
		return nil
	}
	return &qc.outs[i]
}

// Match decides whether the query expression can be computed from the view
// and, if so, returns the substitute expression; it returns nil otherwise.
// The query must have passed spjg validation. It analyses the query on every
// call; the rule's call site builds one QueryContext and matches every
// candidate against it.
func (m *Matcher) Match(q *spjg.Query, v *View) *Substitute {
	return m.NewQueryContext(q).Match(v)
}
