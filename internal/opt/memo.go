package opt

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// planInfo is one memo alternative: a physical plan with its (query-space)
// output schema and cost estimates.
type planInfo struct {
	node     exec.Node
	cols     []expr.ColRef
	pos      map[expr.ColRef]int
	cost     float64
	rows     float64
	usesView bool
}

func newPlanInfo(node exec.Node, cols []expr.ColRef, cost, rows float64, usesView bool) *planInfo {
	pos := make(map[expr.ColRef]int, len(cols))
	for i, c := range cols {
		pos[c] = i
	}
	return &planInfo{node: node, cols: cols, pos: pos, cost: cost, rows: rows, usesView: usesView}
}

// rewriteTo rewrites a query-space expression to the plan's flat row layout.
func (p *planInfo) rewriteTo(e expr.Expr) (expr.Expr, error) {
	var err error
	out := expr.MapColumns(e, func(c expr.ColRef) expr.ColRef {
		i, ok := p.pos[c]
		if !ok {
			err = fmt.Errorf("opt: column %v not available in plan schema", c)
			return c
		}
		return expr.ColRef{Tab: 0, Col: i}
	})
	return out, err
}

// optCtx holds per-query optimization state.
type optCtx struct {
	o         *Optimizer
	q         *spjg.Query
	est       *estimator
	conjuncts []expr.Expr
	conjTabs  []map[int]bool
	refCols   [][]int // per table instance: referenced column ordinals
	adj       [][]bool
	stats     QueryStats
}

// Optimize plans a normalized SPJG query, generating base join plans,
// view-substitute alternatives for every connected subexpression, the final
// aggregation placement, and (for aggregation queries over joins) the eager
// pre-aggregation alternatives of Example 4. It returns the cheapest plan.
func (o *Optimizer) Optimize(q *spjg.Query) (*Result, error) {
	return o.OptimizeCtx(context.Background(), q)
}

// OptimizeCtx is Optimize with cancellation: the memo loop polls ctx every
// few subexpressions, so a server can abandon planning when a request times
// out or the client disconnects. A cancelled call returns ctx's error
// (context.Canceled or context.DeadlineExceeded) unwrapped.
func (o *Optimizer) OptimizeCtx(ctx context.Context, q *spjg.Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Tables)
	if n > 20 {
		return nil, fmt.Errorf("opt: %d tables exceeds the supported join size", n)
	}
	// Planning only reads the view catalog; hold the shared lock for the
	// whole pass so registrations cannot splice the catalog mid-plan.
	o.mu.RLock()
	defer o.mu.RUnlock()
	c := &optCtx{o: o, q: q, est: &estimator{q: q}}
	c.prepare()

	best := map[uint64]*planInfo{}
	full := uint64(1)<<n - 1
	// Enumerate connected subsets in increasing size; singletons first.
	masks := make([]uint64, 0, 1<<n)
	for m := uint64(1); m <= full; m++ {
		if c.connected(m) {
			masks = append(masks, m)
		}
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := bits.OnesCount64(masks[i]), bits.OnesCount64(masks[j])
		if pi != pj {
			return pi < pj
		}
		return masks[i] < masks[j]
	})

	isAgg := q.IsAggregate()
	for mi, mask := range masks {
		// Poll for cancellation cheaply: the per-mask work is microseconds,
		// so a stride of 64 bounds the overrun after a timeout fires.
		if mi&63 == 0 && mi > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var alt *planInfo
		if bits.OnesCount64(mask) == 1 {
			alt = c.scanInfo(bits.TrailingZeros64(mask))
		} else {
			for t := 0; t < n; t++ {
				if mask&(1<<t) == 0 {
					continue
				}
				rest := mask &^ (1 << t)
				left, ok := best[rest]
				if !ok {
					continue
				}
				// Require a join predicate between rest and t (the memo only
				// explores connected subexpressions).
				if !c.linked(rest, t) {
					continue
				}
				ji, err := c.joinInfo(left, rest, t)
				if err != nil {
					return nil, err
				}
				if alt == nil || ji.cost < alt.cost {
					alt = ji
				}
			}
			if alt == nil {
				continue // disconnected in left-deep order; unreachable for connected masks
			}
		}
		// View-matching rule on the subexpression. For a pure SPJ query the
		// full set is the query itself and is matched at top level instead.
		if mask != full || isAgg {
			if vp := c.subsetViewPlans(mask); vp != nil && vp.cost < alt.cost {
				alt = vp
			}
		}
		best[mask] = alt
	}

	core, ok := best[full]
	if !ok {
		// Disconnected join graph: glue components with cartesian joins.
		var err error
		core, err = c.glueComponents(best, full)
		if err != nil {
			return nil, err
		}
	}

	var final *planInfo
	if !isAgg {
		fp, err := c.projectOutputs(core)
		if err != nil {
			return nil, err
		}
		final = fp
	} else {
		ap, err := c.assembleAgg(core)
		if err != nil {
			return nil, err
		}
		final = ap
		if o.opts.EnablePreAggregation && len(q.GroupBy) > 0 && n > 1 {
			pre, err := c.preaggAlternatives(best, full)
			if err != nil {
				return nil, err
			}
			if pre != nil && pre.cost < final.cost {
				final = pre
			}
		}
	}
	// Top-level view matching on the real query expression.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, sub := range o.matchViews(q, &c.stats) {
		vp := c.topSubstitutePlan(sub)
		if vp.cost < final.cost {
			final = vp
		}
	}

	return &Result{
		Plan:     final.node,
		Cost:     final.cost,
		Rows:     final.rows,
		UsesView: final.usesView,
		Stats:    c.stats,
	}, nil
}

// prepare computes conjuncts, referenced columns, and the join-connectivity
// graph.
func (c *optCtx) prepare() {
	q := c.q
	if q.Where != nil {
		c.conjuncts = expr.ToCNF(q.Where)
	}
	c.conjTabs = make([]map[int]bool, len(c.conjuncts))
	for i, cj := range c.conjuncts {
		c.conjTabs[i] = expr.TablesUsed(cj)
	}

	ref := make([]map[int]bool, len(q.Tables))
	for i := range ref {
		ref[i] = map[int]bool{}
	}
	touch := func(e expr.Expr) {
		for _, r := range expr.Columns(e) {
			ref[r.Tab][r.Col] = true
		}
	}
	if q.Where != nil {
		touch(q.Where)
	}
	for _, o := range q.Outputs {
		if o.Expr != nil {
			touch(o.Expr)
		} else if o.Agg != nil && o.Agg.Arg != nil {
			touch(o.Agg.Arg)
		}
	}
	for _, g := range q.GroupBy {
		touch(g)
	}
	c.refCols = make([][]int, len(q.Tables))
	for t := range ref {
		if len(ref[t]) == 0 {
			ref[t][0] = true // keep at least one column so subexpressions stay valid
		}
		for col := range ref[t] {
			c.refCols[t] = append(c.refCols[t], col)
		}
		sort.Ints(c.refCols[t])
	}

	c.adj = make([][]bool, len(q.Tables))
	for i := range c.adj {
		c.adj[i] = make([]bool, len(q.Tables))
	}
	for _, tabs := range c.conjTabs {
		if len(tabs) < 2 {
			continue
		}
		var list []int
		for t := range tabs {
			list = append(list, t)
		}
		for _, a := range list {
			for _, b := range list {
				if a != b {
					c.adj[a][b] = true
				}
			}
		}
	}
}

func (c *optCtx) connected(mask uint64) bool {
	if bits.OnesCount64(mask) <= 1 {
		return mask != 0
	}
	start := bits.TrailingZeros64(mask)
	seen := uint64(1) << start
	frontier := []int{start}
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for u := 0; u < len(c.adj); u++ {
			if mask&(1<<u) != 0 && seen&(1<<u) == 0 && c.adj[t][u] {
				seen |= 1 << u
				frontier = append(frontier, u)
			}
		}
	}
	return seen == mask
}

func (c *optCtx) linked(mask uint64, t int) bool {
	for u := 0; u < len(c.adj); u++ {
		if mask&(1<<u) != 0 && c.adj[u][t] {
			return true
		}
	}
	return false
}

// scanInfo builds the scan alternative for a single table instance, with
// single-table conjuncts pushed down.
func (c *optCtx) scanInfo(t int) *planInfo {
	tbl := c.q.Tables[t].Table
	var local []expr.Expr
	sel := 1.0
	for i, cj := range c.conjuncts {
		if len(c.conjTabs[i]) == 1 && c.conjTabs[i][t] {
			local = append(local, expr.MapColumns(cj, func(r expr.ColRef) expr.ColRef {
				return expr.ColRef{Tab: 0, Col: r.Col}
			}))
			sel *= c.est.conjunctSelectivity(cj)
		}
	}
	var filter expr.Expr
	if len(local) > 0 {
		filter = expr.NewAnd(local...)
	}
	node := &exec.TableScan{Table: tbl.Name, Filter: filter, NCols: len(tbl.Columns)}
	cols := make([]expr.ColRef, len(tbl.Columns))
	for i := range cols {
		cols[i] = expr.ColRef{Tab: t, Col: i}
	}
	tableRows := c.est.tableRows(t)
	rows := tableRows * sel
	if rows < 1 {
		rows = 1
	}
	return newPlanInfo(node, cols, tableRows, rows, false)
}

// joinInfo joins best(rest) with table t, applying every conjunct that
// becomes fully bound.
func (c *optCtx) joinInfo(left *planInfo, rest uint64, t int) (*planInfo, error) {
	scan := c.scanInfo(t)
	newMask := rest | 1<<uint(t)

	var lcols, rcols []int
	var residual []expr.Expr
	sel := 1.0
	for i, cj := range c.conjuncts {
		tabs := c.conjTabs[i]
		if len(tabs) < 2 || !tabs[t] {
			continue
		}
		inNew := true
		for tb := range tabs {
			if newMask&(1<<tb) == 0 {
				inNew = false
				break
			}
		}
		if !inNew {
			continue
		}
		sel *= c.est.conjunctSelectivity(cj)
		// Equi conjunct between a left column and a t column becomes a hash
		// key; everything else is a join residual.
		if cmp, ok := cj.(expr.Cmp); ok && cmp.Op == expr.EQ {
			lc, lok := cmp.L.(expr.Column)
			rc, rok := cmp.R.(expr.Column)
			if lok && rok {
				switch {
				case lc.Ref.Tab != t && rc.Ref.Tab == t:
					lcols = append(lcols, left.pos[lc.Ref])
					rcols = append(rcols, rc.Ref.Col)
					continue
				case rc.Ref.Tab != t && lc.Ref.Tab == t:
					lcols = append(lcols, left.pos[rc.Ref])
					rcols = append(rcols, lc.Ref.Col)
					continue
				}
			}
		}
		// Rewrite over concat(left, scan).
		rw := expr.MapColumns(cj, func(r expr.ColRef) expr.ColRef {
			if r.Tab == t {
				return expr.ColRef{Tab: 0, Col: len(left.cols) + r.Col}
			}
			return expr.ColRef{Tab: 0, Col: left.pos[r]}
		})
		residual = append(residual, rw)
	}

	var node exec.Node
	var resid expr.Expr
	if len(residual) > 0 {
		resid = expr.NewAnd(residual...)
	}
	if len(lcols) > 0 {
		node = &exec.HashJoin{L: left.node, R: scan.node, LCols: lcols, RCols: rcols, Residual: resid}
	} else {
		node = &exec.NestedLoopJoin{L: left.node, R: scan.node, Pred: resid}
	}
	cols := make([]expr.ColRef, 0, len(left.cols)+len(scan.cols))
	cols = append(cols, left.cols...)
	cols = append(cols, scan.cols...)
	rows := left.rows * scan.rows * sel
	if rows < 1 {
		rows = 1
	}
	cost := left.cost + scan.cost + left.rows + scan.rows + rows
	return newPlanInfo(node, cols, cost, rows, left.usesView), nil
}

// glueComponents joins disconnected components with cartesian products.
func (c *optCtx) glueComponents(best map[uint64]*planInfo, full uint64) (*planInfo, error) {
	var comps []uint64
	remaining := full
	for remaining != 0 {
		t := bits.TrailingZeros64(remaining)
		// Grow the component of t.
		comp := uint64(1) << t
		for changed := true; changed; {
			changed = false
			for u := 0; u < len(c.adj); u++ {
				if full&(1<<u) == 0 || comp&(1<<u) != 0 {
					continue
				}
				for v := 0; v < len(c.adj); v++ {
					if comp&(1<<v) != 0 && c.adj[u][v] {
						comp |= 1 << u
						changed = true
						break
					}
				}
			}
		}
		comps = append(comps, comp)
		remaining &^= comp
	}
	var acc *planInfo
	for _, comp := range comps {
		p, ok := best[comp]
		if !ok {
			return nil, fmt.Errorf("opt: no plan for component %b", comp)
		}
		if acc == nil {
			acc = p
			continue
		}
		node := &exec.NestedLoopJoin{L: acc.node, R: p.node}
		cols := append(append([]expr.ColRef{}, acc.cols...), p.cols...)
		rows := acc.rows * p.rows
		cost := acc.cost + p.cost + rows
		acc = newPlanInfo(node, cols, cost, rows, acc.usesView || p.usesView)
	}
	return acc, nil
}

// subsetExpr builds the SPJG subexpression induced by a table subset: its
// tables, every conjunct fully contained in the subset, and the referenced
// columns as outputs. Returns the expression and the query-space column list
// matching its output order.
func (c *optCtx) subsetExpr(mask uint64) (*spjg.Query, []expr.ColRef) {
	var tabs []int
	local := make(map[int]int)
	for t := 0; t < len(c.q.Tables); t++ {
		if mask&(1<<t) != 0 {
			local[t] = len(tabs)
			tabs = append(tabs, t)
		}
	}
	sub := &spjg.Query{}
	for _, t := range tabs {
		sub.Tables = append(sub.Tables, c.q.Tables[t])
	}
	remap := func(e expr.Expr) expr.Expr {
		return expr.MapColumns(e, func(r expr.ColRef) expr.ColRef {
			return expr.ColRef{Tab: local[r.Tab], Col: r.Col}
		})
	}
	var preds []expr.Expr
	for i, cj := range c.conjuncts {
		inside := true
		for tb := range c.conjTabs[i] {
			if mask&(1<<tb) == 0 {
				inside = false
				break
			}
		}
		if inside {
			preds = append(preds, remap(cj))
		}
	}
	if len(preds) > 0 {
		sub.Where = expr.NewAnd(preds...)
	}
	var outCols []expr.ColRef
	for _, t := range tabs {
		tbl := c.q.Tables[t].Table
		for _, col := range c.refCols[t] {
			sub.Outputs = append(sub.Outputs, spjg.OutputColumn{
				Name: tbl.Columns[col].Name,
				Expr: expr.Col(local[t], col),
			})
			outCols = append(outCols, expr.ColRef{Tab: t, Col: col})
		}
	}
	return sub, outCols
}

// subsetViewPlans invokes the view-matching rule on the subset's
// subexpression and returns the cheapest substitute plan, or nil.
func (c *optCtx) subsetViewPlans(mask uint64) *planInfo {
	subExpr, outCols := c.subsetExpr(mask)
	subs := c.o.matchViews(subExpr, &c.stats)
	if len(subs) == 0 {
		return nil
	}
	// Cost every substitute, build the memo entry for the cheapest only (the
	// first one on a tie).
	bestNode, bestCost, bestRows := c.buildSubstitute(subs[0])
	for _, sub := range subs[1:] {
		if node, cost, outRows := c.buildSubstitute(sub); cost < bestCost {
			bestNode, bestCost, bestRows = node, cost, outRows
		}
	}
	return newPlanInfo(bestNode, outCols, bestCost, bestRows, true)
}

// buildSubstitute assembles a substitute's physical plan and estimates its
// access cost: a full view scan, an index seek when a declared index is
// pinned by the compensating filter, plus one hash join per backjoin.
func (c *optCtx) buildSubstitute(sub *core.Substitute) (node exec.Node, cost, filtered float64) {
	vrows := c.o.viewRows[sub.View.ID]
	filtered = vrows * c.viewFilterSelectivity(sub)
	if filtered < 1 {
		filtered = 1
	}
	scan := &exec.ViewScan{View: sub.View.Name, Filter: sub.Filter, NCols: len(sub.View.Def.Outputs)}
	cost = vrows + filtered
	if len(sub.Backjoins) == 0 {
		if seek := c.o.seekAccess(sub); seek != nil {
			scan = seek
			cost = seekCost(filtered)
		}
	} else {
		// Each backjoin builds a hash table over the base table and probes
		// once per surviving view row.
		for _, bj := range sub.Backjoins {
			cost += float64(bj.Table.RowCount) + filtered
		}
	}
	return exec.BuildSubstitutePlanWithScan(sub, scan), cost, filtered
}

// viewFilterSelectivity estimates the selectivity of a substitute's
// compensating filter by translating view-output references back to the
// view definition's base columns.
func (c *optCtx) viewFilterSelectivity(sub *core.Substitute) float64 {
	if sub.Filter == nil {
		return 1
	}
	def := sub.View.Def
	est := &estimator{q: def}
	translated := expr.MapColumns(sub.Filter, func(r expr.ColRef) expr.ColRef {
		if r.Tab == 0 && r.Col >= 0 && r.Col < len(def.Outputs) {
			if col, ok := def.Outputs[r.Col].Expr.(expr.Column); ok {
				return col.Ref
			}
		}
		return expr.ColRef{Tab: -1, Col: -1} // unknown: default selectivity
	})
	sel := 1.0
	for _, cj := range expr.ToCNF(translated) {
		sel *= est.conjunctSelectivity(cj)
	}
	return sel
}

// projectOutputs adds the final projection of an SPJ query.
func (c *optCtx) projectOutputs(p *planInfo) (*planInfo, error) {
	exprs := make([]expr.Expr, len(c.q.Outputs))
	for i, o := range c.q.Outputs {
		e, err := p.rewriteTo(o.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	node := &exec.Project{In: p.node, Exprs: exprs}
	return newPlanInfo(node, nil, p.cost+p.rows, p.rows, p.usesView), nil
}

// assembleAgg places the final group-by over the SPJ core.
func (c *optCtx) assembleAgg(p *planInfo) (*planInfo, error) {
	q := c.q
	groupBy := make([]expr.Expr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		e, err := p.rewriteTo(g)
		if err != nil {
			return nil, err
		}
		groupBy[i] = e
	}
	var aggs []exec.AggSpec
	var projExprs []expr.Expr
	for _, o := range q.Outputs {
		if o.Agg != nil {
			spec := exec.AggSpec{Num: exec.SimpleAgg{Kind: o.Agg.Kind}}
			if o.Agg.Arg != nil {
				e, err := p.rewriteTo(o.Agg.Arg)
				if err != nil {
					return nil, err
				}
				spec.Num.Arg = e
			}
			aggs = append(aggs, spec)
			projExprs = append(projExprs, expr.Col(0, len(groupBy)+len(aggs)-1))
			continue
		}
		pos, err := groupKeyPos(q.GroupBy, o.Expr)
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, expr.Col(0, pos))
	}
	groups := estimateGroups(c.est, q.GroupBy, p.rows)
	node := &exec.Project{
		In:    &exec.HashAgg{In: p.node, GroupBy: groupBy, Aggs: aggs},
		Exprs: projExprs,
	}
	cost := p.cost + p.rows + groups
	return newPlanInfo(node, nil, cost, groups, p.usesView), nil
}

// topSubstitutePlan costs a substitute for the whole query, using an index
// seek on the view when the compensating filter pins a declared index.
func (c *optCtx) topSubstitutePlan(sub *core.Substitute) *planInfo {
	node, cost, filtered := c.buildSubstitute(sub)
	rows := filtered
	if sub.Regroup {
		rows = estimateGroups(c.est, c.q.GroupBy, filtered)
		cost += rows
	}
	return newPlanInfo(node, nil, cost, rows, true)
}

func groupKeyPos(groupBy []expr.Expr, e expr.Expr) (int, error) {
	ne := expr.Normalize(e)
	for i, g := range groupBy {
		if expr.Equal(ne, expr.Normalize(g)) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("opt: output expression not in GROUP BY list")
}
