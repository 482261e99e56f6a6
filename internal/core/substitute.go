package core

import (
	"fmt"
	"strings"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// Backjoin re-attaches a base table to the view to recover columns the view
// does not output — the §7 extension ("base table backjoins cover the case
// when a view contains all tables and rows needed but some columns are
// missing"). The view outputs a unique key of the table (ViewOrds), so the
// equijoin back to KeyCols is 1:1 and preserves both rows and duplication.
// Columns of the backjoined table are referenced in substitute expressions
// with Tab == 1 + the backjoin's position in Substitute.Backjoins.
type Backjoin struct {
	Table    *catalog.Table
	ViewOrds []int // view output ordinals carrying the key values
	KeyCols  []int // the matching unique-key column ordinals in Table
}

// SubstituteOutput is one output of a substitute expression. Exactly one of
// Expr and Agg is set. Column references in Expr and Agg.Arg use Tab == 0 and
// Col == the ordinal of a view output column. DivBy implements the AVG
// rollup of §3.3 — AVG(E) over a less-aggregated view becomes
// SUM(sum_E) / SUM(count_big) — and is only set alongside Agg.
type SubstituteOutput struct {
	Name  string
	Expr  expr.Expr
	Agg   *spjg.Aggregate
	DivBy *spjg.Aggregate
}

// Substitute is an expression equivalent to the matched query, computed from
// a single materialized view (§2, "View Matching with Single-View
// Substitutes"): scan the view, apply the backjoins (if any), apply Filter,
// optionally regroup on GroupBy, and produce Outputs. Column references with
// Tab == 0 are view output ordinals; Tab == k > 0 references the columns of
// Backjoins[k-1].Table.
type Substitute struct {
	View *View

	// Backjoins lists base tables re-attached to recover missing columns.
	Backjoins []Backjoin

	// Filter is the conjunction of the compensating predicates (§3.1.3):
	// column-equality compensations from the equivalence-class comparison,
	// range compensations from the range comparison, and the query residuals
	// missing from the view. Nil when no compensation is needed.
	Filter expr.Expr
	comp   []expr.Expr // the conjuncts of Filter as the matcher produced them

	// Regroup indicates a compensating group-by must be applied on top of
	// the view (§3.3). GroupBy holds the grouping expressions; it is empty
	// for a scalar aggregate.
	Regroup bool
	GroupBy []expr.Expr

	Outputs []SubstituteOutput
}

// Conjuncts returns the compensating predicates one by one — the CNF of
// Filter, which a costing pass can read without converting it again. The
// slice is shared with Filter and must not be modified.
func (s *Substitute) Conjuncts() []expr.Expr {
	if s.comp == nil && s.Filter != nil { // a substitute not built by Match
		return expr.ToCNF(s.Filter)
	}
	return s.comp
}

// OutputResolver names view output (and backjoined) columns for rendering.
func (s *Substitute) OutputResolver() expr.Resolver {
	return func(r expr.ColRef) string {
		if r.Tab == 0 && r.Col >= 0 && r.Col < len(s.View.Def.Outputs) {
			name := s.View.Def.Outputs[r.Col].Name
			if name == "" {
				name = fmt.Sprintf("col%d", r.Col)
			}
			return s.View.Name + "." + name
		}
		if bj := r.Tab - 1; bj >= 0 && bj < len(s.Backjoins) {
			t := s.Backjoins[bj].Table
			if r.Col >= 0 && r.Col < len(t.Columns) {
				return t.Name + "." + t.Columns[r.Col].Name
			}
		}
		return r.String()
	}
}

// String renders the substitute as SQL-ish text for EXPLAIN output and tests.
func (s *Substitute) String() string {
	res := s.OutputResolver()
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, o := range s.Outputs {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case o.Agg != nil && o.Agg.Kind == spjg.AggCountStar:
			sb.WriteString("COUNT_BIG(*)")
		case o.Agg != nil:
			sb.WriteString(o.Agg.Kind.String() + "(" + expr.Render(o.Agg.Arg, res) + ")")
			if o.DivBy != nil {
				sb.WriteString(" / " + o.DivBy.Kind.String() + "(" + expr.Render(o.DivBy.Arg, res) + ")")
			}
		default:
			sb.WriteString(expr.Render(o.Expr, res))
		}
		if o.Name != "" {
			sb.WriteString(" AS " + o.Name)
		}
	}
	sb.WriteString(" FROM " + s.View.Name)
	for _, bj := range s.Backjoins {
		sb.WriteString(" BACKJOIN " + bj.Table.Name)
	}
	if s.Filter != nil && !expr.IsTrue(s.Filter) {
		sb.WriteString(" WHERE " + expr.Render(s.Filter, res))
	}
	if s.Regroup && len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(expr.Render(g, res))
		}
	}
	return sb.String()
}
