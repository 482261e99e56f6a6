// Package spjg defines the normalized select-project-join-group-by form that
// both queries and materialized-view definitions are reduced to before view
// matching (§2). A Query holds the FROM list, the WHERE predicate split into
// the paper's PE / PR / PU components, the output list, and the optional
// grouping list; Analyze derives the column equivalence classes and
// per-class ranges the matching tests consume (§3.1.1–3.1.2).
package spjg

import (
	"fmt"
	"strings"

	"matview/internal/catalog"
	"matview/internal/eqclass"
	"matview/internal/expr"
	"matview/internal/ranges"
)

// TableRef is one entry in a FROM list: a base table under an optional alias.
// Derived tables and subqueries are excluded by construction, as required for
// indexable views (§2).
type TableRef struct {
	Table *catalog.Table
	Alias string // defaults to the table name
}

// Name returns the effective alias.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table.Name
}

// AggKind identifies an aggregation function. Materialized views may use
// SUM and COUNT_BIG(*) only (§2); queries may additionally use COUNT(*) and
// AVG, which the matcher rewrites over the view's columns (§3.3).
type AggKind uint8

// Aggregation functions.
const (
	AggCountStar AggKind = iota // COUNT(*) / COUNT_BIG(*)
	AggSum                      // SUM(expr)
	AggAvg                      // AVG(expr), queries only
)

// String returns the SQL spelling.
func (k AggKind) String() string {
	switch k {
	case AggCountStar:
		return "COUNT(*)"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// Aggregate is an aggregation function application.
type Aggregate struct {
	Kind AggKind
	Arg  expr.Expr // nil for COUNT(*)
}

// OutputColumn is one item of the output list: either a scalar expression
// (Expr non-nil) or an aggregate (Agg non-nil), never both.
type OutputColumn struct {
	Name string
	Expr expr.Expr
	Agg  *Aggregate
}

// IsAggregate reports whether the output column is an aggregate.
func (o OutputColumn) IsAggregate() bool { return o.Agg != nil }

// Query is a normalized SPJG expression: SELECT outputs FROM tables WHERE
// where [GROUP BY groupBy]. Column references index Tables.
type Query struct {
	Tables  []TableRef
	Where   expr.Expr // nil means TRUE
	Outputs []OutputColumn
	GroupBy []expr.Expr // nil for SPJ expressions

	// HasGroupBy distinguishes a scalar aggregate (aggregates without GROUP
	// BY) from a plain SPJ query when GroupBy is empty.
	HasGroupBy bool
}

// IsAggregate reports whether the expression has a group-by or any aggregate
// output.
func (q *Query) IsAggregate() bool {
	if q.HasGroupBy || len(q.GroupBy) > 0 {
		return true
	}
	for _, o := range q.Outputs {
		if o.IsAggregate() {
			return true
		}
	}
	return false
}

// Resolver returns a column-name resolver ("alias.column") for rendering
// expressions of this query.
func (q *Query) Resolver() expr.Resolver {
	return func(r expr.ColRef) string {
		if r.Tab < 0 || r.Tab >= len(q.Tables) {
			return r.String()
		}
		t := q.Tables[r.Tab]
		if r.Col < 0 || r.Col >= len(t.Table.Columns) {
			return r.String()
		}
		return t.Name() + "." + t.Table.Columns[r.Col].Name
	}
}

// Validate checks structural invariants: column references in range, each
// output either scalar or aggregate, aggregates only in aggregate queries,
// grouping expressions present in the output list for views.
func (q *Query) Validate() error {
	checkRef := func(r expr.ColRef) error {
		if r.Tab < 0 || r.Tab >= len(q.Tables) {
			return fmt.Errorf("spjg: table index %d out of range", r.Tab)
		}
		if r.Col < 0 || r.Col >= len(q.Tables[r.Tab].Table.Columns) {
			return fmt.Errorf("spjg: column index %d out of range for table %s",
				r.Col, q.Tables[r.Tab].Name())
		}
		return nil
	}
	checkExpr := func(e expr.Expr) error {
		for _, r := range expr.Columns(e) {
			if err := checkRef(r); err != nil {
				return err
			}
		}
		return nil
	}
	if len(q.Tables) == 0 {
		return fmt.Errorf("spjg: empty FROM list")
	}
	if q.Where != nil {
		if err := checkExpr(q.Where); err != nil {
			return err
		}
	}
	if len(q.Outputs) == 0 {
		return fmt.Errorf("spjg: empty output list")
	}
	agg := q.IsAggregate()
	for i, o := range q.Outputs {
		switch {
		case o.Expr != nil && o.Agg != nil:
			return fmt.Errorf("spjg: output %d is both scalar and aggregate", i)
		case o.Expr == nil && o.Agg == nil:
			return fmt.Errorf("spjg: output %d is empty", i)
		case o.Expr != nil:
			if err := checkExpr(o.Expr); err != nil {
				return err
			}
		case o.Agg != nil:
			if !agg {
				return fmt.Errorf("spjg: aggregate output %d in non-aggregate query", i)
			}
			if o.Agg.Kind != AggCountStar {
				if o.Agg.Arg == nil {
					return fmt.Errorf("spjg: output %d: %s requires an argument", i, o.Agg.Kind)
				}
				if err := checkExpr(o.Agg.Arg); err != nil {
					return err
				}
			}
		}
	}
	for _, g := range q.GroupBy {
		if err := checkExpr(g); err != nil {
			return err
		}
	}
	if agg {
		// Non-aggregate outputs of an aggregate query must match a grouping
		// expression (SQL validity).
		for i, o := range q.Outputs {
			if o.Agg != nil {
				continue
			}
			found := false
			for _, g := range q.GroupBy {
				if expr.Equal(expr.Normalize(o.Expr), expr.Normalize(g)) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("spjg: output %d (%s) not in GROUP BY list",
					i, expr.Render(o.Expr, q.Resolver()))
			}
		}
	}
	return nil
}

// ValidateAsView applies the additional requirements for indexable views
// (§2): every grouping expression in the output list, a COUNT_BIG(*) output
// column, aggregation functions limited to SUM and COUNT_BIG(*), and SUM
// arguments that are plain expressions.
func (q *Query) ValidateAsView() error {
	if err := q.Validate(); err != nil {
		return err
	}
	if !q.IsAggregate() {
		return nil
	}
	hasCount := false
	for _, o := range q.Outputs {
		if o.Agg != nil {
			switch o.Agg.Kind {
			case AggCountStar:
				hasCount = true
			case AggSum:
			default:
				return fmt.Errorf("spjg: view aggregate %s not allowed (only SUM and COUNT_BIG)", o.Agg.Kind)
			}
		}
	}
	if !hasCount {
		return fmt.Errorf("spjg: aggregation view must output COUNT_BIG(*)")
	}
	for _, g := range q.GroupBy {
		found := false
		for _, o := range q.Outputs {
			if o.Expr != nil && expr.Equal(expr.Normalize(o.Expr), expr.Normalize(g)) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("spjg: grouping expression %s missing from view output list",
				expr.Render(g, q.Resolver()))
		}
	}
	return nil
}

// String renders the query as SQL-ish text for diagnostics.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	res := q.Resolver()
	for i, o := range q.Outputs {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case o.Agg != nil && o.Agg.Kind == AggCountStar:
			sb.WriteString("COUNT_BIG(*)")
		case o.Agg != nil:
			sb.WriteString(o.Agg.Kind.String() + "(" + expr.Render(o.Agg.Arg, res) + ")")
		default:
			sb.WriteString(expr.Render(o.Expr, res))
		}
		if o.Name != "" {
			sb.WriteString(" AS " + o.Name)
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Table.Name)
		if t.Alias != "" && t.Alias != t.Table.Name {
			sb.WriteString(" " + t.Alias)
		}
	}
	if q.Where != nil && !expr.IsTrue(q.Where) {
		sb.WriteString(" WHERE " + expr.Render(q.Where, res))
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(expr.Render(g, res))
		}
	}
	return sb.String()
}

// Analysis holds everything the matching tests derive from a Query: the
// predicate components, the column equivalence classes, and the per-class
// ranges. For views it is computed once at registration; for queries, once
// per optimization. It is read-only once Analyze returns.
type Analysis struct {
	Q *Query

	// Conjuncts is the predicate in conjunctive normal form: the first NWhere
	// conjuncts come from the WHERE clause, the rest from folded check
	// constraints, table by table.
	Conjuncts []expr.Expr
	NWhere    int

	// PE / PR / PU are the predicate components of §3.1.2, each in conjunct
	// order. PU conjuncts are normalized; the first NResidual of them are
	// residual conjuncts of the predicate, the rest range conjuncts that
	// degraded (see AddRange), in PR order.
	PE        []expr.EqualityConjunct
	PR        []expr.RangeConjunct
	PU        []expr.Expr
	NResidual int

	// EC holds the column equivalence classes computed from PE over every
	// column of every table instance, frozen.
	EC *eqclass.Classes

	// Ranges lists the constrained classes with their accumulated range, in
	// the order the classes were first constrained.
	Ranges []ClassRange

	// ResidualFPs are the normalized fingerprints of the PU conjuncts,
	// aligned with PU by index.
	ResidualFPs []expr.Fingerprint

	// Contradiction is set when some class range is empty: the expression
	// returns no rows.
	Contradiction bool
}

// ClassRange is the accumulated range of one equivalence class; Rep is the
// EC id of the class representative.
type ClassRange struct {
	Rep   int32
	Range ranges.Range
}

// Analyze computes the Analysis of q. Check constraints of referenced tables
// are folded into the predicate before the split when includeChecks is set —
// the extension the paper describes ("check constraints can be taken into
// account by including them in the antecedent", §3.1.2).
func Analyze(q *Query, includeChecks bool) *Analysis {
	a := &Analysis{Q: q, EC: eqclass.New(len(q.Tables), func(t int) int {
		return len(q.Tables[t].Table.Columns)
	})}

	if q.Where != nil {
		a.Conjuncts = expr.ToCNF(q.Where)
	}
	a.NWhere = len(a.Conjuncts)
	if includeChecks {
		for ti, t := range q.Tables {
			for _, ck := range t.Table.Checks {
				a.Conjuncts = append(a.Conjuncts, expr.ToCNF(expr.ShiftTables(ck.Expr, ti))...)
			}
		}
	}

	pe, pr, pu := expr.SplitConjuncts(a.Conjuncts)
	a.PE = pe
	a.PR = pr
	a.NResidual = len(pu)
	a.EC.AddEqualities(pe)
	a.EC.Freeze()
	for _, rc := range pr {
		if !a.AddRange(rc) {
			pu = append(pu, rc.Expr())
		}
	}

	// Normalize residuals and fingerprint them.
	a.PU = make([]expr.Expr, len(pu))
	a.ResidualFPs = make([]expr.Fingerprint, len(pu))
	for i, c := range pu {
		n := expr.Normalize(c)
		a.PU[i] = n
		a.ResidualFPs[i] = expr.NewFingerprint(n)
	}
	return a
}

// AddRange folds a range predicate into the range of its column's class under
// a.EC. It reports false, folding nothing, when the constant is incomparable
// with the bounds accumulated so far: the predicate then degrades to a
// residual conjunct (conservative).
func (a *Analysis) AddRange(rc expr.RangeConjunct) bool {
	id := a.EC.ID(rc.Col)
	if id < 0 {
		return true // outside the FROM list; Validate rejects such queries
	}
	rep := a.EC.FindID(id)
	at := -1
	for i := range a.Ranges {
		if a.Ranges[i].Rep == rep {
			at = i
			break
		}
	}
	cur := ranges.Universal()
	if at >= 0 {
		cur = a.Ranges[at].Range
	}
	next, ok := cur.Apply(rc.Op, rc.Val)
	if !ok {
		return false
	}
	if at < 0 {
		a.Ranges = append(a.Ranges, ClassRange{Rep: rep, Range: next})
	} else {
		a.Ranges[at].Range = next
	}
	if next.Empty() {
		a.Contradiction = true
	}
	return true
}

// RangeFor returns the accumulated range of the class containing r
// (universal when unconstrained).
func (a *Analysis) RangeFor(r expr.ColRef) ranges.Range {
	if id := a.EC.ID(r); id >= 0 {
		rep := a.EC.FindID(id)
		for _, cr := range a.Ranges {
			if cr.Rep == rep {
				return cr.Range
			}
		}
	}
	return ranges.Universal()
}

// SourceTableMultiset returns one key string per table instance; repeated
// tables get distinct occurrence-numbered keys ("nation#0", "nation#1") so
// that multiset subset/superset relations reduce to plain set relations —
// what the filter tree's source-table and hub conditions need (§4.2.1–4.2.2).
func (q *Query) SourceTableMultiset() []string {
	seen := map[string]int{}
	out := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		n := t.Table.Name
		out[i] = fmt.Sprintf("%s#%d", n, seen[n])
		seen[n]++
	}
	return out
}
