package exec

import (
	"fmt"

	"matview/internal/core"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/storage"
)

// BuildReferencePlan compiles a normalized SPJG query into a straightforward
// left-deep plan: scans with pushed-down single-table conjuncts, hash joins
// on available equijoin conjuncts in FROM order (nested loops when none), a
// final filter for leftover conjuncts, then aggregation or projection. It is
// the baseline evaluator used to validate substitutes and to execute no-view
// plans.
func BuildReferencePlan(q *spjg.Query) (Node, error) {
	scanLedger.referencePlans.Add(1)
	widths := make([]int, len(q.Tables))
	offsets := make([]int, len(q.Tables))
	total := 0
	for i, t := range q.Tables {
		widths[i] = len(t.Table.Columns)
		offsets[i] = total
		total += widths[i]
	}
	// flat rewrites a query expression over the wide row (all tables
	// concatenated in FROM order).
	flat := func(e expr.Expr) expr.Expr {
		return expr.MapColumns(e, func(c expr.ColRef) expr.ColRef {
			return expr.ColRef{Tab: 0, Col: offsets[c.Tab] + c.Col}
		})
	}

	var conjuncts []expr.Expr
	if q.Where != nil {
		conjuncts = expr.ToCNF(q.Where)
	}
	applied := make([]bool, len(conjuncts))

	// Per-table pushdown.
	perTable := make([][]expr.Expr, len(q.Tables))
	for ci, c := range conjuncts {
		tabs := expr.TablesUsed(c)
		if len(tabs) == 1 {
			for t := range tabs {
				// Rewrite to the table's local frame.
				local := expr.MapColumns(c, func(r expr.ColRef) expr.ColRef {
					return expr.ColRef{Tab: 0, Col: r.Col}
				})
				perTable[t] = append(perTable[t], local)
				applied[ci] = true
			}
		}
	}

	scan := func(t int) Node {
		var filter expr.Expr
		if len(perTable[t]) > 0 {
			filter = expr.NewAnd(perTable[t]...)
		}
		return &TableScan{Table: q.Tables[t].Table.Name, Filter: filter, NCols: widths[t]}
	}

	// Left-deep joins in FROM order. joined tracks which table instances are
	// inside the current plan; their columns sit at offsets[t]..+widths[t].
	plan := scan(0)
	joined := map[int]bool{0: true}
	curWidth := widths[0]
	curOffset := map[int]int{0: 0} // table → offset within current plan row
	for t := 1; t < len(q.Tables); t++ {
		var lcols, rcols []int
		for ci, c := range conjuncts {
			if applied[ci] {
				continue
			}
			cmp, ok := c.(expr.Cmp)
			if !ok || cmp.Op != expr.EQ {
				continue
			}
			lc, lok := cmp.L.(expr.Column)
			rc, rok := cmp.R.(expr.Column)
			if !lok || !rok {
				continue
			}
			switch {
			case joined[lc.Ref.Tab] && rc.Ref.Tab == t:
				lcols = append(lcols, curOffset[lc.Ref.Tab]+lc.Ref.Col)
				rcols = append(rcols, rc.Ref.Col)
				applied[ci] = true
			case joined[rc.Ref.Tab] && lc.Ref.Tab == t:
				lcols = append(lcols, curOffset[rc.Ref.Tab]+rc.Ref.Col)
				rcols = append(rcols, lc.Ref.Col)
				applied[ci] = true
			}
		}
		right := scan(t)
		if len(lcols) > 0 {
			plan = &HashJoin{L: plan, R: right, LCols: lcols, RCols: rcols}
		} else {
			plan = &NestedLoopJoin{L: plan, R: right}
		}
		joined[t] = true
		curOffset[t] = curWidth
		curWidth += widths[t]
	}
	// curOffset now equals offsets (FROM order), so flat() works for the
	// remaining conjuncts and outputs.
	var leftover []expr.Expr
	for ci, c := range conjuncts {
		if !applied[ci] {
			leftover = append(leftover, flat(c))
		}
	}
	if len(leftover) > 0 {
		plan = &Filter{In: plan, Pred: expr.NewAnd(leftover...)}
	}

	if q.IsAggregate() {
		groupBy := make([]expr.Expr, len(q.GroupBy))
		for i, g := range q.GroupBy {
			groupBy[i] = flat(g)
		}
		var aggs []AggSpec
		// Aggregate output columns in output order; scalar outputs must map
		// to grouping expressions.
		keyPos := func(e expr.Expr) (int, error) {
			ne := expr.Normalize(e)
			for i, g := range q.GroupBy {
				if expr.Equal(ne, expr.Normalize(g)) {
					return i, nil
				}
			}
			return -1, fmt.Errorf("exec: output %v not in GROUP BY", e)
		}
		var projExprs []expr.Expr
		aggBase := len(groupBy)
		for _, o := range q.Outputs {
			if o.Agg != nil {
				spec := AggSpec{Num: SimpleAgg{Kind: o.Agg.Kind}}
				if o.Agg.Arg != nil {
					spec.Num.Arg = flat(o.Agg.Arg)
				}
				aggs = append(aggs, spec)
				projExprs = append(projExprs, expr.Col(0, aggBase+len(aggs)-1))
				continue
			}
			pos, err := keyPos(o.Expr)
			if err != nil {
				return nil, err
			}
			projExprs = append(projExprs, expr.Col(0, pos))
		}
		plan = &HashAgg{In: plan, GroupBy: groupBy, Aggs: aggs}
		return &Project{In: plan, Exprs: projExprs}, nil
	}

	projExprs := make([]expr.Expr, len(q.Outputs))
	for i, o := range q.Outputs {
		projExprs[i] = flat(o.Expr)
	}
	return &Project{In: plan, Exprs: projExprs}, nil
}

// RunQuery evaluates a normalized SPJG query with the reference plan.
func RunQuery(db storage.Reader, q *spjg.Query) ([]storage.Row, error) {
	plan, err := BuildReferencePlan(q)
	if err != nil {
		return nil, err
	}
	return plan.Run(db)
}

// ViewsReferenced walks a plan and returns the names of the materialized
// views it scans, deduplicated in first-visit order. The server uses it to
// attribute executions to views for the per-view usage counters.
func ViewsReferenced(n Node) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		if n == nil {
			return
		}
		if vs, ok := n.(*ViewScan); ok && !seen[vs.View] {
			seen[vs.View] = true
			out = append(out, vs.View)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// BuildSubstitutePlan compiles a view substitute into a physical plan: a
// filtered scan of the materialized view, an optional compensating group-by,
// and a final projection.
func BuildSubstitutePlan(sub *core.Substitute) Node {
	return BuildSubstitutePlanWithScan(sub, &ViewScan{
		View:   sub.View.Name,
		Filter: sub.Filter,
		NCols:  len(sub.View.Def.Outputs),
	})
}

// BuildSubstitutePlanWithScan is BuildSubstitutePlan with a caller-supplied
// access path (e.g. an index seek carrying part of the compensating filter
// as EqCols/EqVals). The scan must produce the view's full output rows.
//
// Substitutes with backjoins (§7) hash-join the view back to each base table
// on the unique key the view outputs; the compensating filter then runs over
// the widened row, and all multi-table column references (Tab k > 0) are
// flattened to offsets in that row.
func BuildSubstitutePlanWithScan(sub *core.Substitute, scan *ViewScan) Node {
	var plan Node = scan
	flatten := func(e expr.Expr) expr.Expr { return e }

	if len(sub.Backjoins) > 0 {
		// The filter may reference backjoined columns, so it must run after
		// the joins, not inside the scan.
		filter := scan.Filter
		scan.Filter = nil
		offsets := make([]int, len(sub.Backjoins)+1)
		width := scan.NCols
		for k, bj := range sub.Backjoins {
			offsets[k+1] = width
			right := &TableScan{Table: bj.Table.Name, NCols: len(bj.Table.Columns)}
			plan = &HashJoin{
				L:     plan,
				R:     right,
				LCols: bj.ViewOrds, // view columns stay leftmost, ordinals valid
				RCols: bj.KeyCols,
			}
			width += len(bj.Table.Columns)
		}
		flatten = func(e expr.Expr) expr.Expr {
			return expr.MapColumns(e, func(r expr.ColRef) expr.ColRef {
				return expr.ColRef{Tab: 0, Col: offsets[r.Tab] + r.Col}
			})
		}
		if filter != nil {
			plan = &Filter{In: plan, Pred: flatten(filter)}
		}
	}

	if !sub.Regroup {
		exprs := make([]expr.Expr, len(sub.Outputs))
		for i, o := range sub.Outputs {
			exprs[i] = flatten(o.Expr)
		}
		return &Project{In: plan, Exprs: exprs}
	}
	var aggs []AggSpec
	var projExprs []expr.Expr
	aggBase := len(sub.GroupBy)
	groupBy := make([]expr.Expr, len(sub.GroupBy))
	for i, g := range sub.GroupBy {
		groupBy[i] = flatten(g)
	}
	// Group keys in substitute order; scalar outputs map to their key.
	keyPos := func(e expr.Expr) int {
		ne := expr.Normalize(e)
		for i, g := range sub.GroupBy {
			if expr.Equal(ne, expr.Normalize(g)) {
				return i
			}
		}
		return -1
	}
	flattenArg := func(e expr.Expr) expr.Expr {
		if e == nil {
			return nil // COUNT(*) has no argument
		}
		return flatten(e)
	}
	for _, o := range sub.Outputs {
		if o.Agg != nil {
			spec := AggSpec{Num: SimpleAgg{Kind: o.Agg.Kind, Arg: flattenArg(o.Agg.Arg)}}
			if o.DivBy != nil {
				spec.Den = &SimpleAgg{Kind: o.DivBy.Kind, Arg: flattenArg(o.DivBy.Arg)}
			}
			aggs = append(aggs, spec)
			projExprs = append(projExprs, expr.Col(0, aggBase+len(aggs)-1))
			continue
		}
		if pos := keyPos(o.Expr); pos >= 0 {
			projExprs = append(projExprs, expr.Col(0, pos))
		} else {
			// A scalar output that is not a group key can only be a constant.
			projExprs = append(projExprs, o.Expr)
		}
	}
	plan = &HashAgg{In: plan, GroupBy: groupBy, Aggs: aggs}
	return &Project{In: plan, Exprs: projExprs}
}
