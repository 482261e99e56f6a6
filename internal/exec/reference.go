package exec

import (
	"fmt"
	"strings"

	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// RunReference executes a plan with the original row-at-a-time evaluator:
// every operator fully materializes its output, expressions are interpreted
// through a per-row Binding closure, and execution is single-threaded. It is
// kept as the semantic baseline the batched engine is checked against
// (equivalence and fuzz suites run every plan through both) and as the
// "before" side of the BenchmarkExec* comparisons. Scans materialize rows
// out of the column store via Rows()/RowAt(), paying the row-at-a-time
// boxing cost the columnar engine avoids.
func RunReference(db storage.Reader, n Node) ([]storage.Row, error) {
	switch t := n.(type) {
	case *TableScan:
		return refTableScan(db, t)
	case *ViewScan:
		return refViewScan(db, t)
	case *HashJoin:
		return refHashJoin(db, t)
	case *NestedLoopJoin:
		return refNestedLoopJoin(db, t)
	case *Filter:
		return refFilter(db, t)
	case *Project:
		return refProject(db, t)
	case *HashAgg:
		return refHashAgg(db, t)
	default:
		return nil, fmt.Errorf("exec: reference evaluator cannot run %T", n)
	}
}

// bindRow adapts a row to the expression interpreter's Binding.
func bindRow(r storage.Row) expr.Binding {
	return func(c expr.ColRef) sqlvalue.Value {
		if c.Tab != 0 || c.Col < 0 || c.Col >= len(r) {
			return sqlvalue.Null
		}
		return r[c.Col]
	}
}

func refTableScan(db storage.Reader, s *TableScan) ([]storage.Row, error) {
	t := db.TableData(s.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.Table)
	}
	if s.Filter == nil {
		return t.Rows(), nil
	}
	var out []storage.Row
	for _, r := range t.Rows() {
		ok, err := expr.EvalPredicate(s.Filter, bindRow(r))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

func refViewScan(db storage.Reader, s *ViewScan) ([]storage.Row, error) {
	v := db.ViewData(s.View)
	if v == nil {
		return nil, fmt.Errorf("exec: view %q not materialized", s.View)
	}
	emit := func(rows []storage.Row) ([]storage.Row, error) {
		if s.Filter == nil {
			return rows, nil
		}
		var out []storage.Row
		for _, r := range rows {
			ok, err := expr.EvalPredicate(s.Filter, bindRow(r))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil
	}
	if len(s.EqCols) == 0 {
		return emit(v.Rows())
	}
	st := v.Store()
	if idx := v.LookupIndex(s.EqCols); idx != nil {
		var rows []storage.Row
		for _, ord := range idx.Probe(s.EqVals) {
			rows = append(rows, st.RowAt(ord))
		}
		return emit(rows)
	}
	// No index built: evaluate the equalities as a scan predicate.
	var rows []storage.Row
	for _, r := range v.Rows() {
		match := true
		for i, c := range s.EqCols {
			if !sqlvalue.Identical(r[c], s.EqVals[i]) {
				match = false
				break
			}
		}
		if match {
			rows = append(rows, r)
		}
	}
	return emit(rows)
}

func refHashJoin(db storage.Reader, j *HashJoin) ([]storage.Row, error) {
	lrows, err := RunReference(db, j.L)
	if err != nil {
		return nil, err
	}
	rrows, err := RunReference(db, j.R)
	if err != nil {
		return nil, err
	}
	key := func(r storage.Row, cols []int) (string, bool) {
		var sb strings.Builder
		for _, c := range cols {
			if r[c].IsNull() {
				return "", false
			}
			sb.WriteString(r[c].Key())
			sb.WriteByte('\x1f')
		}
		return sb.String(), true
	}
	ht := make(map[string][]storage.Row, len(lrows))
	for _, lr := range lrows {
		if k, ok := key(lr, j.LCols); ok {
			ht[k] = append(ht[k], lr)
		}
	}
	var out []storage.Row
	for _, rr := range rrows {
		k, ok := key(rr, j.RCols)
		if !ok {
			continue
		}
		for _, lr := range ht[k] {
			joined := make(storage.Row, 0, len(lr)+len(rr))
			joined = append(joined, lr...)
			joined = append(joined, rr...)
			if j.Residual != nil {
				pass, err := expr.EvalPredicate(j.Residual, bindRow(joined))
				if err != nil {
					return nil, err
				}
				if !pass {
					continue
				}
			}
			out = append(out, joined)
		}
	}
	return out, nil
}

func refNestedLoopJoin(db storage.Reader, j *NestedLoopJoin) ([]storage.Row, error) {
	lrows, err := RunReference(db, j.L)
	if err != nil {
		return nil, err
	}
	rrows, err := RunReference(db, j.R)
	if err != nil {
		return nil, err
	}
	var out []storage.Row
	for _, lr := range lrows {
		for _, rr := range rrows {
			joined := make(storage.Row, 0, len(lr)+len(rr))
			joined = append(joined, lr...)
			joined = append(joined, rr...)
			if j.Pred != nil {
				pass, err := expr.EvalPredicate(j.Pred, bindRow(joined))
				if err != nil {
					return nil, err
				}
				if !pass {
					continue
				}
			}
			out = append(out, joined)
		}
	}
	return out, nil
}

func refFilter(db storage.Reader, f *Filter) ([]storage.Row, error) {
	rows, err := RunReference(db, f.In)
	if err != nil {
		return nil, err
	}
	var out []storage.Row
	for _, r := range rows {
		ok, err := expr.EvalPredicate(f.Pred, bindRow(r))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

func refProject(db storage.Reader, p *Project) ([]storage.Row, error) {
	rows, err := RunReference(db, p.In)
	if err != nil {
		return nil, err
	}
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		bind := bindRow(r)
		nr := make(storage.Row, len(p.Exprs))
		for c, e := range p.Exprs {
			v, err := expr.Eval(e, bind)
			if err != nil {
				return nil, err
			}
			nr[c] = v
		}
		out[i] = nr
	}
	return out, nil
}

func refHashAgg(db storage.Reader, a *HashAgg) ([]storage.Row, error) {
	rows, err := RunReference(db, a.In)
	if err != nil {
		return nil, err
	}
	type group struct {
		keys storage.Row
		num  []aggState
		den  []aggState
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		bind := bindRow(r)
		keys := make(storage.Row, len(a.GroupBy))
		var kb strings.Builder
		for i, g := range a.GroupBy {
			v, err := expr.Eval(g, bind)
			if err != nil {
				return nil, err
			}
			keys[i] = v
			kb.WriteString(v.Key())
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		grp, ok := groups[k]
		if !ok {
			grp = &group{keys: keys, num: make([]aggState, len(a.Aggs)), den: make([]aggState, len(a.Aggs))}
			groups[k] = grp
			order = append(order, k)
		}
		for i, spec := range a.Aggs {
			if err := grp.num[i].add(spec.Num.Kind, spec.Num.Arg, bind); err != nil {
				return nil, err
			}
			if spec.Den != nil {
				if err := grp.den[i].add(spec.Den.Kind, spec.Den.Arg, bind); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(a.GroupBy) == 0 && len(groups) == 0 {
		return []storage.Row{scalarEmptyAggRow(a.Aggs)}, nil
	}
	result := make([]storage.Row, 0, len(groups))
	for _, k := range order {
		grp := groups[k]
		row := make(storage.Row, len(grp.keys)+len(a.Aggs))
		if err := finishAggRow(row, grp.keys, grp.num, grp.den, a.Aggs); err != nil {
			return nil, err
		}
		result = append(result, row)
	}
	return result, nil
}

// scalarEmptyAggRow is the one output row of a scalar aggregation over empty
// input: COUNT = 0, SUM/AVG = NULL, and any rollup quotient (Den) = NULL.
func scalarEmptyAggRow(aggs []AggSpec) storage.Row {
	out := make(storage.Row, len(aggs))
	for i, spec := range aggs {
		var st aggState
		out[i] = st.result(spec.Num.Kind)
		if spec.Den != nil {
			out[i] = sqlvalue.Null
		}
	}
	return out
}

// finishAggRow renders one group into row: keys followed by each aggregate,
// applying the Num/Den quotient for AVG rollups (§3.3).
func finishAggRow(row, keys storage.Row, num, den []aggState, aggs []AggSpec) error {
	copy(row, keys)
	for i, spec := range aggs {
		v := num[i].result(spec.Num.Kind)
		if spec.Den != nil {
			d := den[i].result(spec.Den.Kind)
			if v.IsNull() || d.IsNull() {
				v = sqlvalue.Null
			} else {
				q, err := sqlvalue.Div(v, d)
				if err != nil {
					return err
				}
				v = q
			}
		}
		row[len(keys)+i] = v
	}
	return nil
}
