// Package opt implements the transformation-based optimizer hosting the
// view-matching rule (§1, §2). The memo enumerates the connected
// subexpressions of each SPJG query (the groups a Cascades optimizer would
// derive through join commutativity/associativity), invokes the view-matching
// rule on every one of them, and keeps whatever alternative — base plan or
// view substitute — costs least. Aggregation queries additionally get the
// pre-aggregation alternatives that make Example 4 work.
package opt

import (
	"matview/internal/catalog"
	"matview/internal/core"
	"matview/internal/expr"
	"matview/internal/ranges"
	"matview/internal/spjg"
)

// Default selectivities for predicates the model cannot analyze.
const (
	selResidual  = 0.1  // LIKE, arithmetic comparisons, …
	selNotNull   = 0.9  // IS NOT NULL
	selIsNull    = 0.1  // IS NULL
	selInequal   = 0.9  // <>
	selRangeOpen = 0.33 // half-open range with unknown bounds
)

// estimator derives cardinalities from catalog statistics, assuming uniform
// value distributions and independent predicates — the standard textbook
// model, which is also all the paper's experiments need (optimization time is
// the measurement, not plan quality).
type estimator struct {
	q *spjg.Query
	// v, when set, makes column references outputs of the view (Tab 0), as in
	// a substitute's compensating predicates; q is not used then.
	v *core.View
}

func (e *estimator) column(c expr.ColRef) *catalog.Column {
	if e.v != nil {
		if c.Tab != 0 {
			return nil // a backjoined column: default selectivity
		}
		return e.v.OutputColumn(c.Col)
	}
	if c.Tab < 0 || c.Tab >= len(e.q.Tables) {
		return nil
	}
	t := e.q.Tables[c.Tab].Table
	if c.Col < 0 || c.Col >= len(t.Columns) {
		return nil
	}
	return &t.Columns[c.Col]
}

func (e *estimator) tableRows(tab int) float64 {
	n := float64(e.q.Tables[tab].Table.RowCount)
	if n < 1 {
		return 1
	}
	return n
}

func (e *estimator) distinct(c expr.ColRef) float64 {
	col := e.column(c)
	if col == nil || col.Distinct <= 0 {
		return 100 // default NDV guess
	}
	return float64(col.Distinct)
}

// rangeSelectivity estimates the fraction of a column's domain covered by an
// accumulated range.
func (e *estimator) rangeSelectivity(c expr.ColRef, r ranges.Range) float64 {
	col := e.column(c)
	if col == nil {
		return selRangeOpen
	}
	if r.IsPoint() {
		return 1 / e.distinct(c)
	}
	lo, loOK := col.Min.AsFloat()
	hi, hiOK := col.Max.AsFloat()
	if !loOK || !hiOK || hi <= lo {
		return selRangeOpen
	}
	domain := hi - lo
	rlo, rhi := lo, hi
	if r.Lo.Set {
		if v, ok := r.Lo.Val.AsFloat(); ok && v > rlo {
			rlo = v
		}
	}
	if r.Hi.Set {
		if v, ok := r.Hi.Val.AsFloat(); ok && v < rhi {
			rhi = v
		}
	}
	if rhi <= rlo {
		return 1 / e.distinct(c) // empty-ish: keep a floor
	}
	sel := (rhi - rlo) / domain
	if sel > 1 {
		sel = 1
	}
	if sel <= 0 {
		sel = 1 / e.distinct(c)
	}
	return sel
}

// conjunctSelectivity estimates one CNF conjunct.
func (e *estimator) conjunctSelectivity(c expr.Expr) float64 {
	kind, eq, rng := expr.Classify(c)
	switch kind {
	case expr.KindColumnEquality:
		// Equijoin (or same-table equality): 1/max NDV.
		dl, dr := e.distinct(eq.A), e.distinct(eq.B)
		d := dl
		if dr > d {
			d = dr
		}
		return 1 / d
	case expr.KindRange:
		r := ranges.Universal()
		r, _ = r.Apply(rng.Op, rng.Val)
		return e.rangeSelectivity(rng.Col, r)
	default:
		switch n := c.(type) {
		case expr.IsNull:
			if n.Negate {
				return selNotNull
			}
			return selIsNull
		case expr.Cmp:
			if n.Op == expr.NE {
				return selInequal
			}
			return selResidual
		case expr.Or:
			// 1 - Π(1 - sel_i), capped.
			rem := 1.0
			for _, a := range n.Args {
				rem *= 1 - e.conjunctSelectivity(a)
			}
			s := 1 - rem
			if s < 0.01 {
				s = 0.01
			}
			return s
		case expr.Const:
			if expr.IsFalse(n) {
				return 0.001
			}
			return 1
		default:
			return selResidual
		}
	}
}

// EstimateRows estimates the SPJ output cardinality of a normalized query:
// the product of table cardinalities times the selectivity of every conjunct,
// with group-by output estimated as a capped product of grouping-column NDVs.
// Exported so the workload generator can target result fractions the way the
// paper's generator does (§5).
func EstimateRows(q *spjg.Query) float64 {
	e := &estimator{q: q}
	rows := 1.0
	for t := range q.Tables {
		rows *= e.tableRows(t)
	}
	if q.Where != nil {
		for _, c := range expr.ToCNF(q.Where) {
			rows *= e.conjunctSelectivity(c)
		}
	}
	if rows < 1 {
		rows = 1
	}
	if !q.IsAggregate() {
		return rows
	}
	return estimateGroups(e, q.GroupBy, rows)
}

// estimateGroups caps the number of groups by both the input cardinality and
// the product of grouping-expression NDVs.
func estimateGroups(e *estimator, groupBy []expr.Expr, inRows float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	ndv := 1.0
	for _, g := range groupBy {
		if col, ok := g.(expr.Column); ok {
			ndv *= e.distinct(col.Ref)
		} else {
			ndv *= 1000 // unknown expression NDV
		}
		if ndv > inRows {
			return inRows * 0.9 // groups can't exceed rows; keep some reduction
		}
	}
	if ndv < 1 {
		ndv = 1
	}
	if ndv > inRows {
		ndv = inRows
	}
	return ndv
}
