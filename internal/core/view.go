// Package core implements the paper's primary contribution: the view-matching
// algorithm of §3. Given a normalized SPJG query expression and a registered
// materialized view, Matcher.Match decides whether the query can be computed
// from the view alone and, if so, constructs the substitute expression — a
// scan of the view plus compensating predicates, an optional compensating
// group-by, and rewritten output expressions.
//
// The algorithm applies, in order: instance alignment between query and view
// FROM lists; elimination of the view's extra tables through
// cardinality-preserving foreign-key joins (§3.2); the equijoin, range, and
// residual subsumption tests (§3.1.2); computability checks and compensating
// predicate construction (§3.1.3–3.1.4); and aggregation rollup (§3.3).
package core

import (
	"fmt"
	"sync"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// View is a registered materialized view: its definition, the precomputed
// analysis (equivalence classes, ranges, residual fingerprints), the hub
// (§4.2.2), and the filter-tree keys (§4.2). NewView is the only constructor;
// a View is read-only from then on, which makes it safe to share across
// matching goroutines.
type View struct {
	ID   int
	Name string
	Def  *spjg.Query
	A    *spjg.Analysis

	// Hub is the set of table instances (indexes into Def.Tables) that
	// remain after running the cardinality-preserving join elimination to a
	// fixed point on the view itself.
	Hub []int

	// Keys holds the precomputed filter-tree keys.
	Keys ViewKeys

	// derived holds everything else the matching tests need that depends on
	// the view alone.
	derived *viewDerived
}

// viewDerived is the view side of the matching tests, computed once by
// NewView. All fields are immutable after construction. Column ids are those
// of the view's equivalence classes (A.EC).
type viewDerived struct {
	isAgg bool
	// dupTables is set when some base table occurs more than once in the
	// FROM list, so instance alignment needs the general enumeration.
	dupTables bool
	// fkEdges is the foreign-key join graph of §3.2 under the view's classes.
	fkEdges []fkEdge
	// ors lists the residual conjuncts that are disjunctions of range
	// predicates.
	ors []orRanges
	// checks holds, per table instance with check constraints folded into the
	// view's analysis, those constraints analysed on their own (table
	// instance 0 standing for the table). A query that does not reference the
	// table acquires them when the table is added to it (§3.2). Nil when no
	// table has any.
	checks []*tableChecks

	// exprOrds/exprFPs list the complex scalar outputs (neither a column nor
	// a constant) with the fingerprints of their normalized expressions.
	exprOrds []int
	exprFPs  []expr.Fingerprint
	// colOrds/colIDs list the ordinals and column ids of simple column
	// outputs, in output order. On an aggregation view every scalar output is
	// a grouping expression (ValidateAsView), so these are also the columns a
	// compensating predicate may filter on.
	colOrds []int
	colIDs  []int32
	// viewOrd maps a column id to the ordinal of the first simple output
	// column in the same view equivalence class, -1 when there is none — the
	// paper's "extended output list" lookup (§4.2.3).
	viewOrd []int32
	// groupOrds/groupFPs list every scalar output of an aggregation view —
	// its grouping outputs — with their fingerprints.
	groupOrds []int
	groupFPs  []expr.Fingerprint
	// sumOrds/sumFPs list the SUM outputs with the fingerprints of their
	// normalized arguments.
	sumOrds []int
	sumFPs  []expr.Fingerprint
	// cntOrd is the COUNT(*) output ordinal, -1 when absent.
	cntOrd int
	// outCols holds, per output, the base-table column a simple column output
	// reads (nil for any other output): the statistics behind a predicate over
	// the view's outputs. outExprs holds the reference to each output that
	// substitute expressions share.
	outCols  []*catalog.Column
	outExprs []expr.Expr
}

// OutputColumn returns the base-table column that output ord reads directly,
// nil when the output is not a plain column.
func (v *View) OutputColumn(ord int) *catalog.Column {
	if ord < 0 || ord >= len(v.derived.outCols) {
		return nil
	}
	return v.derived.outCols[ord]
}

// tableChecks is the analysis of one table's check constraints.
type tableChecks struct {
	a   *spjg.Analysis
	ors []orRanges
}

func (m *Matcher) computeDerived(def *spjg.Query, a *spjg.Analysis) *viewDerived {
	d := &viewDerived{cntOrd: -1, isAgg: def.IsAggregate()}
	for i := range def.Tables {
		d.dupTables = d.dupTables || occurrence(def.Tables, i) > 0
	}
	d.fkEdges = buildFKGraph(def, a.EC, m.opts.NullRejectingFKRelaxation)
	d.ors = scanOrRanges(a.PU)
	if m.opts.UseCheckConstraints {
		for ti, t := range def.Tables {
			if len(t.Table.Checks) == 0 {
				continue
			}
			if d.checks == nil {
				d.checks = make([]*tableChecks, len(def.Tables))
			}
			ca := spjg.Analyze(&spjg.Query{Tables: def.Tables[ti : ti+1]}, true)
			d.checks[ti] = &tableChecks{a: ca, ors: scanOrRanges(ca.PU)}
		}
	}
	d.outCols = make([]*catalog.Column, len(def.Outputs))
	d.outExprs = make([]expr.Expr, len(def.Outputs))
	for i, o := range def.Outputs {
		d.outExprs[i] = expr.Col(0, i)
		switch {
		case o.Expr != nil:
			fp := expr.NewFingerprint(expr.Normalize(o.Expr))
			if col, isCol := o.Expr.(expr.Column); isCol {
				d.colOrds = append(d.colOrds, i)
				d.colIDs = append(d.colIDs, a.EC.ID(col.Ref))
				d.outCols[i] = &def.Tables[col.Ref.Tab].Table.Columns[col.Ref.Col]
			} else if _, isConst := o.Expr.(expr.Const); !isConst {
				d.exprOrds = append(d.exprOrds, i)
				d.exprFPs = append(d.exprFPs, fp)
			}
			if d.isAgg {
				d.groupOrds = append(d.groupOrds, i)
				d.groupFPs = append(d.groupFPs, fp)
			}
		case o.Agg.Kind == spjg.AggCountStar:
			d.cntOrd = i
		case o.Agg.Kind == spjg.AggSum:
			d.sumOrds = append(d.sumOrds, i)
			d.sumFPs = append(d.sumFPs, expr.NewFingerprint(expr.Normalize(o.Agg.Arg)))
		}
	}
	d.viewOrd = make([]int32, a.EC.Len())
	for x := range d.viewOrd {
		d.viewOrd[x] = -1
		for k, id := range d.colIDs {
			if a.EC.FindID(id) == a.EC.FindID(int32(x)) {
				d.viewOrd[x] = int32(d.colOrds[k])
				break
			}
		}
	}
	return d
}

// MatchOptions configures optional extensions of the algorithm.
type MatchOptions struct {
	// UseCheckConstraints folds table check constraints into the antecedent
	// of the subsumption implication (§3.1.2).
	UseCheckConstraints bool

	// NullRejectingFKRelaxation accepts cardinality-preserving joins over
	// nullable foreign-key columns when the query carries a null-rejecting
	// predicate on the column (end of §3.2; "not yet implemented" in the
	// paper's prototype).
	NullRejectingFKRelaxation bool

	// SubexpressionMatching lets compensating predicates and output
	// expressions be computed from view output *expressions*, not only simple
	// output columns: any subexpression that exactly matches a view output
	// expression (under shallow matching) is replaced by a reference to that
	// output. This is the "improved reasoning about when a scalar expression
	// can be computed from other scalar expressions" extension of §7; the
	// paper's prototype "ignores this possibility" (§3.1.3).
	SubexpressionMatching bool

	// DisjunctiveRanges interprets residual conjuncts that are disjunctions
	// of range predicates over one equivalence class — (A < 5 OR A > 10) —
	// as interval sets and tests them with set containment instead of
	// shallow text matching (§3.1.2's "extended to support disjunctions";
	// unimplemented in the paper's prototype).
	DisjunctiveRanges bool

	// BackjoinSubstitutes lets a substitute re-attach a base table through a
	// unique-key equijoin when the view lacks some of that table's columns
	// but outputs one of its unique keys — §7's "base table backjoins cover
	// the case when a view contains all tables and rows needed but some
	// columns are missing".
	BackjoinSubstitutes bool

	// GroupingByExpression relaxes the grouping subset test: a query grouping
	// expression that is not in the view's grouping list is still accepted if
	// it is computable from the view's grouping output columns (the view's
	// grouping expressions then functionally determine the query's, §3.3).
	GroupingByExpression bool

	// MaxInstanceMappings caps the number of query-to-view table-instance
	// alignments tried when the same table appears several times (self-joins
	// through shared dimensions). 0 means the default of 16.
	MaxInstanceMappings int
}

// DefaultOptions enables the extensions this reproduction implements by
// default; the paper's prototype corresponds to the zero value.
func DefaultOptions() MatchOptions {
	return MatchOptions{
		UseCheckConstraints:       true,
		NullRejectingFKRelaxation: false,
		SubexpressionMatching:     true,
		DisjunctiveRanges:         true,
		BackjoinSubstitutes:       true,
		GroupingByExpression:      true,
	}
}

// Matcher holds the catalog and options shared across match invocations, the
// dictionary that interns the filter-tree key elements of its views, and the
// pool of per-match scratch state.
type Matcher struct {
	cat     *catalog.Catalog
	opts    MatchOptions
	dict    *dict
	scratch sync.Pool // *matchState
}

// NewMatcher returns a Matcher over the given catalog.
func NewMatcher(cat *catalog.Catalog, opts MatchOptions) *Matcher {
	if opts.MaxInstanceMappings == 0 {
		opts.MaxInstanceMappings = 16
	}
	return &Matcher{cat: cat, opts: opts, dict: newDict(),
		scratch: sync.Pool{New: func() any { return new(matchState) }}}
}

// Options returns the matcher's options.
func (m *Matcher) Options() MatchOptions { return m.opts }

// Catalog returns the catalog the matcher resolves constraints against.
func (m *Matcher) Catalog() *catalog.Catalog { return m.cat }

// NewView analyzes a view definition and freezes everything the matching
// tests and the filter tree need from it. The definition must satisfy the
// indexable-view restrictions (§2); id is the caller's identifier (e.g. an
// index into a view list). The view's keys are only meaningful to filter
// trees searched with this matcher's query keys.
func (m *Matcher) NewView(id int, name string, def *spjg.Query) (*View, error) {
	if err := def.ValidateAsView(); err != nil {
		return nil, fmt.Errorf("core: view %s: %w", name, err)
	}
	a := spjg.Analyze(def, m.opts.UseCheckConstraints)
	v := &View{ID: id, Name: name, Def: def, A: a, derived: m.computeDerived(def, a)}
	v.Hub = m.computeHub(v)
	v.Keys = m.computeViewKeys(v)
	return v, nil
}
