// Package exec is the execution engine. It runs physical plan trees produced
// by the optimizer (or assembled directly): scans, hash/nested-loop joins,
// filters, projections, and hash aggregation over SPJG queries and view
// substitutes — which is how materialized views are populated and how tests
// verify that a substitute returns exactly the rows of the original query.
//
// Plans execute through two evaluators with identical semantics:
//
//   - Engine (the default behind Node.Run) compiles expressions once per
//     operator, breaks the plan into pipelines of row-id batches — source,
//     stages, sink — and runs each in parallel over morsels.
//   - RunReference is the original row-at-a-time interpreter, kept as the
//     semantic baseline for equivalence tests and benchmarks.
//
// Both produce rows in the same deterministic order. Incremental view
// maintenance does not run plans: a view's delta term is compiled once into
// a DeltaTerm (delta.go) and evaluated over each statement's few changed
// rows, probing the other tables by key.
package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Node is a physical plan operator. Run produces the operator's full output.
// Expressions inside a node reference the node's input row with Tab == 0 and
// Col == the flat column offset.
type Node interface {
	Run(db storage.Reader) ([]storage.Row, error)
	// Width is the number of output columns.
	Width() int
	// Describe renders one line for EXPLAIN output.
	Describe() string
	// Children returns input operators.
	Children() []Node
}

// TableScan reads a base table, applying an optional filter over the table's
// columns.
type TableScan struct {
	Table  string
	Filter expr.Expr // may be nil
	NCols  int

	pred atomic.Pointer[scanPred] // Filter as last compiled, for its store's column kinds
}

// Run implements Node.
func (s *TableScan) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, s)
}

// Width implements Node.
func (s *TableScan) Width() int { return s.NCols }

// Describe implements Node.
func (s *TableScan) Describe() string {
	if s.Filter == nil {
		return "TableScan(" + s.Table + ")"
	}
	return "TableScan(" + s.Table + ", filter)"
}

// Children implements Node.
func (s *TableScan) Children() []Node { return nil }

// ViewScan reads a materialized view, applying an optional filter over the
// view's output columns. When EqCols/EqVals are set (point compensating
// predicates), a secondary index on those columns is probed if one exists —
// this is how "any secondary indexes defined on a materialized view are
// automatically considered" (§1, §2) manifests at execution time; without an
// index the equality becomes a scan predicate.
type ViewScan struct {
	View   string
	Filter expr.Expr
	NCols  int

	EqCols []int
	EqVals []sqlvalue.Value

	pred atomic.Pointer[scanPred] // Filter as last compiled, for its store's column kinds
}

// Run implements Node.
func (s *ViewScan) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, s)
}

// Width implements Node.
func (s *ViewScan) Width() int { return s.NCols }

// Describe implements Node.
func (s *ViewScan) Describe() string {
	switch {
	case len(s.EqCols) > 0:
		return fmt.Sprintf("ViewSeek(%s, cols %v)", s.View, s.EqCols)
	case s.Filter != nil:
		return "ViewScan(" + s.View + ", filter)"
	default:
		return "ViewScan(" + s.View + ")"
	}
}

// Children implements Node.
func (s *ViewScan) Children() []Node { return nil }

// HashJoin equijoins its inputs on LCols = RCols (offsets into the left and
// right rows respectively), applying an optional residual predicate over the
// concatenated row. NULL join keys never match, per SQL semantics.
type HashJoin struct {
	L, R     Node
	LCols    []int
	RCols    []int
	Residual expr.Expr // over concat(left, right); may be nil
}

// Run implements Node.
func (j *HashJoin) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, j)
}

// Width implements Node.
func (j *HashJoin) Width() int { return j.L.Width() + j.R.Width() }

// Describe implements Node.
func (j *HashJoin) Describe() string {
	return fmt.Sprintf("HashJoin(on %v=%v)", j.LCols, j.RCols)
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.L, j.R} }

// NestedLoopJoin joins its inputs with an arbitrary predicate; used when no
// equijoin columns are available.
type NestedLoopJoin struct {
	L, R Node
	Pred expr.Expr // over concat(left, right); may be nil (cross join)
}

// Run implements Node.
func (j *NestedLoopJoin) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, j)
}

// Width implements Node.
func (j *NestedLoopJoin) Width() int { return j.L.Width() + j.R.Width() }

// Describe implements Node.
func (j *NestedLoopJoin) Describe() string { return "NestedLoopJoin" }

// Children implements Node.
func (j *NestedLoopJoin) Children() []Node { return []Node{j.L, j.R} }

// Filter applies a predicate over its input rows.
type Filter struct {
	In   Node
	Pred expr.Expr
}

// Run implements Node.
func (f *Filter) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, f)
}

// Width implements Node.
func (f *Filter) Width() int { return f.In.Width() }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter" }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.In} }

// Project evaluates one expression per output column.
type Project struct {
	In    Node
	Exprs []expr.Expr
}

// Run implements Node.
func (p *Project) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, p)
}

// Width implements Node.
func (p *Project) Width() int { return len(p.Exprs) }

// Describe implements Node.
func (p *Project) Describe() string { return fmt.Sprintf("Project(%d cols)", len(p.Exprs)) }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.In} }

// SimpleAgg is one aggregation function over input rows.
type SimpleAgg struct {
	Kind spjg.AggKind
	Arg  expr.Expr // nil for COUNT(*)
}

// AggSpec is one aggregate output: Num, optionally divided by Den — the form
// AVG rollups take (SUM(sum_E) / SUM(count_big), §3.3).
type AggSpec struct {
	Num SimpleAgg
	Den *SimpleAgg
}

// HashAgg groups its input by the GroupBy expressions and computes the
// aggregate specs. Output columns are the group keys followed by the
// aggregates. With no grouping expressions the aggregation is scalar: exactly
// one output row, even for empty input (COUNT = 0, SUM/AVG = NULL).
type HashAgg struct {
	In      Node
	GroupBy []expr.Expr
	Aggs    []AggSpec
}

// Run implements Node.
func (a *HashAgg) Run(db storage.Reader) ([]storage.Row, error) {
	return DefaultEngine.Run(db, a)
}

// Width implements Node.
func (a *HashAgg) Width() int { return len(a.GroupBy) + len(a.Aggs) }

// Describe implements Node.
func (a *HashAgg) Describe() string {
	return fmt.Sprintf("HashAgg(%d keys, %d aggs)", len(a.GroupBy), len(a.Aggs))
}

// Children implements Node.
func (a *HashAgg) Children() []Node { return []Node{a.In} }

// aggState accumulates one SimpleAgg. COUNT counts every input row (so AVG =
// SUM/count divides by the row count, per §3.3); SUM skips NULLs and stays
// NULL until the first non-null input. Its addends are BIGINT and DOUBLE
// values only, so a sum's kind follows from its argument's.
//
// A running sum that is or becomes DOUBLE is exact: it is held as a
// non-overlapping expansion (Shewchuk's grow-expansion, the algorithm behind
// Python's math.fsum) that value rounds once, half to even. The result is
// therefore the correctly rounded sum of the inputs — a function of their
// multiset, whatever the order rows arrive in or partial states are merged
// in — and the engine equals RunReference, which folds through the same
// state, at every worker count and batch size. The one exception: once an
// input is ±Inf or NaN, or the running magnitude passes fsumLimit (a finite
// sum about to overflow), the state falls back to plain left-to-right
// addition and stays there; only such a sum can depend on the order of its
// inputs.
type aggState struct {
	count int64
	kind  sqlvalue.Kind // of the running sum; KindNull until the first non-null input
	plain bool          // DOUBLE sum kept by plain addition, in small[0]
	n     int8          // parts of the expansion held in small
	i     int64         // the sum while it is a BIGINT
	small [3]float64
	rest  *aggRest
}

// aggRest is what few sums need: an expansion that outgrew small (n is then
// unused).
type aggRest struct {
	big []float64
}

// fsumLimit is the magnitude below which adding two parts cannot overflow.
const fsumLimit = math.MaxFloat64 / 4

func (st *aggState) add(kind spjg.AggKind, arg expr.Expr, bind expr.Binding) error {
	st.count++
	if kind == spjg.AggCountStar {
		return nil
	}
	v, err := expr.Eval(arg, bind)
	if err != nil {
		return err
	}
	return st.accumulate(v)
}

// accumulate folds one already-evaluated argument value into the running sum
// (NULL contributes nothing). The caller has already bumped count. A DATE,
// VARCHAR or BOOLEAN value is refused from the first, as SQL refuses to sum
// one. Integer sums wrap; a DOUBLE addend makes the sum DOUBLE.
func (st *aggState) accumulate(v sqlvalue.Value) error {
	switch k := v.Kind(); {
	case k == sqlvalue.KindNull:
	case k != sqlvalue.KindInt && k != sqlvalue.KindFloat:
		return fmt.Errorf("exec: cannot sum %s values", k)
	case k == sqlvalue.KindInt && st.kind != sqlvalue.KindFloat:
		st.addIntSum(v.Int())
	default:
		if st.kind == sqlvalue.KindInt {
			st.addFloatSum(float64(st.i)) // the BIGINT sum turns DOUBLE
		}
		f, _ := v.AsFloat()
		st.addFloatSum(f)
	}
	return nil
}

// addIntSum folds a non-null value from an int-kind chain into a sum that is
// NULL or BIGINT: exactly accumulate(NewInt(v)).
func (st *aggState) addIntSum(v int64) {
	st.kind = sqlvalue.KindInt
	st.i += v
}

// parts is the live expansion: increasing magnitude, non-overlapping.
func (st *aggState) parts() []float64 {
	if st.rest != nil && st.rest.big != nil {
		return st.rest.big
	}
	return st.small[:st.n]
}

// addFloatSum folds x into a sum that is NULL, DOUBLE, or about to be:
// exactly accumulate(NewFloat(x)).
func (st *aggState) addFloatSum(x float64) {
	st.kind = sqlvalue.KindFloat
	p := st.parts()
	if !st.plain && (!(math.Abs(x) <= fsumLimit) || len(p) > 0 && math.Abs(p[len(p)-1]) > fsumLimit) {
		st.small[0], st.plain = st.value().Float(), true
	}
	if st.plain {
		st.small[0] += x
		return
	}
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	// A high part that cancelled to zero is dropped, unless it is the whole
	// value (a lone zero carries the sum's sign).
	if p = p[:i]; x != 0 || i == 0 {
		p = append(p, x)
	}
	switch {
	case st.rest != nil && st.rest.big != nil:
		st.rest.big = p
	case len(p) > len(st.small):
		st.rest = &aggRest{big: p}
	default:
		st.n = int8(len(p))
	}
}

// value is the running sum as a Value; a DOUBLE expansion is rounded half to
// even (the last loop of math.fsum).
func (st *aggState) value() sqlvalue.Value {
	switch st.kind {
	case sqlvalue.KindNull:
		return sqlvalue.Null
	case sqlvalue.KindInt:
		return sqlvalue.NewInt(st.i)
	}
	p := st.parts()
	if st.plain || len(p) == 0 {
		return sqlvalue.NewFloat(st.small[0])
	}
	n := len(p) - 1
	hi, lo := p[n], 0.0
	for n > 0 && lo == 0 {
		n--
		x := hi
		hi = x + p[n]
		lo = p[n] - (hi - x)
	}
	// hi is the sum of the parts visited, rounded; lo its error. If what lies
	// below has lo's sign, an exact tie was rounded the wrong way.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		if x := hi + 2*lo; 2*lo == x-hi {
			hi = x
		}
	}
	return sqlvalue.NewFloat(hi)
}

// merge folds another worker's partial state into st and consumes it: two
// expansions are added part by part, never as rounded partials.
func (st *aggState) merge(o *aggState) error {
	count := st.count + o.count
	switch {
	case st.kind == sqlvalue.KindNull:
		*st = *o
	case o.kind != sqlvalue.KindFloat || o.plain:
		if err := st.accumulate(o.value()); err != nil {
			return err
		}
	default:
		p := o.parts()
		if err := st.accumulate(sqlvalue.NewFloat(p[0])); err != nil {
			return err
		}
		for _, x := range p[1:] {
			st.addFloatSum(x)
		}
	}
	st.count = count
	return nil
}

func (st *aggState) result(kind spjg.AggKind) sqlvalue.Value {
	switch kind {
	case spjg.AggCountStar:
		return sqlvalue.NewInt(st.count)
	case spjg.AggSum:
		return st.value()
	case spjg.AggAvg:
		// Per the paper's conversion AVG(E) = SUM(E)/COUNT_BIG(*) (§3.3).
		if st.kind == sqlvalue.KindNull || st.count == 0 {
			return sqlvalue.Null
		}
		v, err := sqlvalue.Div(st.value(), sqlvalue.NewInt(st.count))
		if err != nil {
			return sqlvalue.Null
		}
		return v
	default:
		return sqlvalue.Null
	}
}

// Explain renders a plan tree as indented text.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// SameRows reports whether two row bags are equal up to row order and small
// floating-point differences (relative tolerance 1e-9), the comparison
// examples and equivalence tests need when one side sums partial aggregates
// and the other sums raw rows. Both sides are sorted by exact value order
// (compareRows) and then compared pairwise.
func SameRows(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.SortFunc(sa, compareRows)
	slices.SortFunc(sb, compareRows)
	const relTol = 1e-9
	for i := range sa {
		ra, rb := sa[i], sb[i]
		if len(ra) != len(rb) {
			return false
		}
		for c := range ra {
			va, vb := ra[c], rb[c]
			if va.Kind() == sqlvalue.KindFloat || vb.Kind() == sqlvalue.KindFloat {
				fa, okA := va.AsFloat()
				fb, okB := vb.AsFloat()
				if !okA || !okB {
					if !sqlvalue.Identical(va, vb) {
						return false
					}
					continue
				}
				if math.Abs(fa-fb) > relTol*max(1, math.Abs(fa), math.Abs(fb)) {
					return false
				}
				continue
			}
			if !sqlvalue.Identical(va, vb) {
				return false
			}
		}
	}
	return true
}

// compareRows orders rows column by column: NULL first, then numbers,
// strings and booleans, each class in value order.
func compareRows(x, y storage.Row) int {
	for c := range min(len(x), len(y)) {
		if d := cmp.Compare(valueClass(x[c]), valueClass(y[c])); d != 0 {
			return d
		}
		if d, _ := sqlvalue.Compare(x[c], y[c]); d != 0 {
			return d
		}
	}
	return cmp.Compare(len(x), len(y))
}

func valueClass(v sqlvalue.Value) int {
	switch {
	case v.IsNull():
		return 0
	case v.IsNumeric():
		return 1
	case v.Kind() == sqlvalue.KindString:
		return 2
	default:
		return 3
	}
}
