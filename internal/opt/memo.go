package opt

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// maxTables bounds the FROM list of a query the memo plans.
const maxTables = 20

// planInfo is one memo alternative: a physical plan, the layout of its output
// row, and cost estimates. The row concatenates per-table segments: base[t] is
// 1 + the ordinal of table instance t's first column (0: not carried), and a
// segment is the table's full row or, where bit t of narrow is set (under a
// view substitute), only the columns the query references, in column order.
// A projected or aggregated plan has no layout.
type planInfo struct {
	node     exec.Node
	base     [maxTables]int16
	narrow   uint64
	width    int
	cost     float64
	rows     float64
	usesView bool
}

// conjunct is one CNF conjunct of the WHERE clause with what the memo reads
// of it, computed once per optimization.
type conjunct struct {
	e    expr.Expr
	mask uint64 // table instances referenced
	sel  float64
	equi bool // l = r over two different table instances: what a join hashes on
	l, r expr.ColRef
}

// optCtx holds the state of one optimization: the query's one analysis and
// everything the memo loop derives from it by table mask.
type optCtx struct {
	o     *Optimizer
	q     *spjg.Query
	qc    *core.QueryContext // serves the rule on the query and, through Sub, on every subexpression
	est   estimator
	conj  []conjunct
	nbr   []uint64 // per table instance: the instances it shares a conjunct with
	scans []planInfo
	// refOuts lists, per table instance, the columns the query references as
	// the output list of a subexpression; refPos maps a column ordinal to its
	// position in that list, -1 when unreferenced.
	refOuts [][]spjg.OutputColumn
	refPos  [][]int32

	masks []uint64    // the connected table subsets by size, then value
	best  []*planInfo // aligned with masks
	plans []planInfo  // slab behind newPlan

	outs  []spjg.OutputColumn // output list of the subexpression being matched
	subs  []*core.Substitute  // result buffer of matchViews
	pre   preagg
	stats QueryStats
}

func errNoColumn(r expr.ColRef) error {
	return fmt.Errorf("opt: column %v not available in plan schema", r)
}

// ord returns the ordinal of query column r in the plan's row.
func (c *optCtx) ord(p *planInfo, r expr.ColRef) (int, bool) {
	if r.Tab < 0 || r.Tab >= len(c.refPos) || p.base[r.Tab] == 0 || r.Col < 0 || r.Col >= len(c.refPos[r.Tab]) {
		return 0, false
	}
	col := r.Col
	if p.narrow&(1<<uint(r.Tab)) != 0 {
		if col = int(c.refPos[r.Tab][r.Col]); col < 0 {
			return 0, false
		}
	}
	return int(p.base[r.Tab]) - 1 + col, true
}

// rewriteTo rewrites a query-space expression to the plan's flat row layout.
func (c *optCtx) rewriteTo(p *planInfo, e expr.Expr) (expr.Expr, error) {
	var err error
	out := expr.MapColumns(e, func(r expr.ColRef) expr.ColRef {
		i, ok := c.ord(p, r)
		if !ok {
			err = errNoColumn(r)
			return r
		}
		return expr.ColRef{Tab: 0, Col: i}
	})
	return out, err
}

// newPlan takes a plan from the optimization's slab, its layout empty.
func (c *optCtx) newPlan(node exec.Node, cost, rows float64, usesView bool) *planInfo {
	if len(c.plans) == cap(c.plans) { // beyond what enumerate sized the slab for
		c.plans = make([]planInfo, 0, 16)
	}
	c.plans = append(c.plans, planInfo{node: node, cost: cost, rows: rows, usesView: usesView})
	return &c.plans[len(c.plans)-1]
}

// concat gives p the layout of l's row followed by r's.
func (p *planInfo) concat(l, r *planInfo) {
	p.base = l.base
	for t, b := range r.base {
		if b != 0 {
			p.base[t] = int16(l.width) + b
		}
	}
	p.narrow, p.width = l.narrow|r.narrow, l.width+r.width
}

// Optimize plans a normalized SPJG query, generating base join plans,
// view-substitute alternatives for every connected subexpression, the final
// aggregation placement, and (for aggregation queries over joins) the eager
// pre-aggregation alternatives of Example 4. It returns the cheapest plan.
func (o *Optimizer) Optimize(q *spjg.Query) (*Result, error) {
	return o.OptimizeCtx(context.Background(), q)
}

// OptimizeCtx is Optimize with cancellation: enumerating the subexpressions
// and the memo loop over them poll ctx, so a server can abandon planning when
// a request times out or the client disconnects. A cancelled call returns
// ctx's error (context.Canceled or context.DeadlineExceeded) unwrapped.
func (o *Optimizer) OptimizeCtx(ctx context.Context, q *spjg.Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Tables)
	if n > maxTables {
		return nil, fmt.Errorf("opt: %d tables exceeds the supported join size", n)
	}
	// Planning only reads the view catalog; hold the shared lock for the
	// whole pass so registrations cannot splice the catalog mid-plan.
	o.mu.RLock()
	defer o.mu.RUnlock()
	c, err := o.newOptCtx(ctx, q)
	if err != nil {
		return nil, err
	}

	full := uint64(1)<<n - 1
	isAgg := q.IsAggregate()
	for mi, mask := range c.masks {
		// The per-mask work is microseconds, so polling at a stride of 64
		// bounds the overrun after a timeout fires.
		if mi&63 == 0 && mi > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var alt *planInfo
		if mi < n { // the singletons come first, in table order
			alt = &c.scans[mi]
		} else {
			// Cost joining each table t to best(mask − t), where that exists
			// and shares a conjunct with t; build the cheapest, first on a tie.
			var left *planInfo
			bt, bcost, brows := -1, 0.0, 0.0
			for m := mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				rest := mask &^ (1 << t)
				l := c.plan(rest)
				if l == nil || c.nbr[t]&rest == 0 {
					continue
				}
				if cost, rows := c.joinCost(l, rest, t); bt < 0 || cost < bcost {
					left, bt, bcost, brows = l, t, cost, rows
				}
			}
			if bt < 0 {
				continue // no left-deep split; unreachable for connected masks
			}
			var err error
			if alt, err = c.joinInfo(left, mask&^(1<<bt), bt, bcost, brows); err != nil {
				return nil, err
			}
		}
		// View-matching rule on the subexpression. For a pure SPJ query the
		// full set is the query itself and is matched at top level instead.
		if mask != full || isAgg {
			if vp := c.subsetViewPlan(mask, alt.cost); vp != nil {
				alt = vp
			}
		}
		c.best[mi] = alt
	}

	spj := c.plan(full)
	if spj == nil {
		// Disconnected join graph: glue components with cartesian joins.
		if spj, err = c.glueComponents(full); err != nil {
			return nil, err
		}
	}

	var final *planInfo
	if !isAgg {
		final, err = c.projectOutputs(spj)
	} else {
		final, err = c.assembleAgg(spj)
	}
	if err != nil {
		return nil, err
	}
	if isAgg && o.opts.EnablePreAggregation && len(q.GroupBy) > 0 && n > 1 {
		pre, err := c.preaggAlternatives(full)
		if err != nil {
			return nil, err
		}
		if pre != nil && pre.cost < final.cost {
			final = pre
		}
	}
	// Top-level view matching on the real query expression.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if vp := c.substitutePlan(c.matchViews(c.qc), q.GroupBy, final.cost); vp != nil {
		final = vp
	}

	return &Result{
		Plan:     final.node,
		Cost:     final.cost,
		Rows:     final.rows,
		UsesView: final.usesView,
		Stats:    c.stats,
	}, nil
}

// newOptCtx analyses the query and enumerates its subexpressions.
func (o *Optimizer) newOptCtx(ctx context.Context, q *spjg.Query) (*optCtx, error) {
	c := &optCtx{o: o, q: q, est: estimator{q: q}, qc: o.matcher.NewQueryContext(q)}
	c.prepare()
	return c, c.enumerate(ctx)
}

// prepare reads the query's analysis once: every WHERE conjunct with its
// table mask, selectivity and join columns, the join graph as neighbour masks,
// the columns each table contributes to a subexpression, each table's scan.
func (c *optCtx) prepare() {
	q, a := c.q, c.qc.Analysis()
	n := len(q.Tables)
	c.nbr = make([]uint64, n)
	c.refPos = make([][]int32, n)
	total := 0
	for _, t := range q.Tables {
		total += len(t.Table.Columns)
	}
	pos := make([]int32, total) // 0 unreferenced, 1 referenced; positions below
	for t := range q.Tables {
		w := len(q.Tables[t].Table.Columns)
		c.refPos[t], pos = pos[:w:w], pos[w:]
	}
	touch := func(refs ...expr.ColRef) (mask uint64) {
		for _, r := range refs {
			c.refPos[r.Tab][r.Col] = 1
			mask |= 1 << uint(r.Tab)
		}
		return mask
	}

	c.conj = make([]conjunct, a.NWhere)
	for i, e := range a.Conjuncts[:a.NWhere] {
		cj := &c.conj[i]
		cj.e, cj.sel = e, c.est.conjunctSelectivity(e)
		switch kind, eq, rng := expr.Classify(e); kind {
		case expr.KindColumnEquality:
			cj.mask = touch(eq.A, eq.B)
			cj.equi, cj.l, cj.r = eq.A.Tab != eq.B.Tab, eq.A, eq.B
		case expr.KindRange:
			cj.mask = touch(rng.Col)
		default:
			cj.mask = touch(expr.Columns(e)...)
		}
		for m := cj.mask; m != 0; m &= m - 1 {
			c.nbr[bits.TrailingZeros64(m)] |= cj.mask &^ (m & -m)
		}
	}
	for i, o := range q.Outputs {
		if col, ok := o.Expr.(expr.Column); ok {
			touch(col.Ref)
		} else if fp := c.qc.OutputFP(i); fp != nil {
			touch(fp.Cols...)
		}
	}
	for gi := range q.GroupBy {
		touch(c.qc.GroupFP(gi).Cols...)
	}

	nref := 0
	for t := range q.Tables {
		if !slices.Contains(c.refPos[t], 1) {
			c.refPos[t][0] = 1 // keep at least one column so subexpressions stay valid
		}
		for _, p := range c.refPos[t] {
			nref += int(p)
		}
	}
	outs := make([]spjg.OutputColumn, 0, nref)
	c.refOuts = make([][]spjg.OutputColumn, n)
	c.scans = make([]planInfo, n)
	for t, tr := range q.Tables {
		tbl := tr.Table
		from := len(outs)
		for col, p := range c.refPos[t] {
			if c.refPos[t][col] = -1; p != 0 {
				c.refPos[t][col] = int32(len(outs) - from)
				outs = append(outs, spjg.OutputColumn{Name: tbl.Columns[col].Name, Expr: expr.Col(t, col)})
			}
		}
		c.refOuts[t] = outs[from:len(outs):len(outs)]

		var local []expr.Expr
		sel := 1.0
		for i := range c.conj {
			if cj := &c.conj[i]; cj.mask == 1<<uint(t) {
				local = append(local, expr.ShiftTables(cj.e, -t))
				sel *= cj.sel
			}
		}
		var filter expr.Expr
		if len(local) > 0 {
			filter = expr.NewAnd(local...)
		}
		tableRows := c.est.tableRows(t)
		c.scans[t] = planInfo{
			node:  &exec.TableScan{Table: tbl.Name, Filter: filter, NCols: len(tbl.Columns)},
			width: len(tbl.Columns), cost: tableRows, rows: max(tableRows*sel, 1),
		}
		c.scans[t].base[t] = 1
	}
}

// enumerate lists the connected subsets of the join graph by size, then
// value: the singletons, then every set of the previous size extended by one
// neighbour, so only connected sets are ever generated — each once, by a
// bitmap over masks — and ctx is polled while generating them.
func (c *optCtx) enumerate(ctx context.Context) error {
	n := len(c.nbr)
	for t := 0; t < n; t++ {
		c.masks = append(c.masks, 1<<uint(t))
	}
	seen := make([]uint64, 1<<max(n-6, 0))
	for from := 0; from < len(c.masks); {
		level := c.masks[from:]
		from = len(c.masks)
		for i, s := range level {
			if i&63 == 63 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			var reach uint64
			for m := s; m != 0; m &= m - 1 {
				reach |= c.nbr[bits.TrailingZeros64(m)]
			}
			for m := reach &^ s; m != 0; m &= m - 1 {
				if next := s | m&-m; seen[next>>6]&(1<<(next&63)) == 0 {
					seen[next>>6] |= 1 << (next & 63)
					c.masks = append(c.masks, next)
				}
			}
		}
		slices.Sort(c.masks[from:])
	}
	c.best = make([]*planInfo, len(c.masks))
	c.plans = make([]planInfo, 0, 2*len(c.masks))
	return nil
}

// plan returns the memo's alternative for a table subset, nil when it has
// none (the subset is not connected).
func (c *optCtx) plan(mask uint64) *planInfo {
	i, ok := slices.BinarySearchFunc(c.masks, mask, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(bits.OnesCount64(a), bits.OnesCount64(b)), cmp.Compare(a, b))
	})
	if !ok {
		return nil
	}
	return c.best[i]
}

// joins reports whether conjunct cj becomes fully bound when table instance
// t joins the tables of rest.
func (cj *conjunct) joins(rest uint64, t int) bool {
	bit := uint64(1) << uint(t)
	return cj.mask&bit != 0 && cj.mask != bit && cj.mask&^(rest|bit) == 0
}

// joinCost estimates joining best(rest) with table t.
func (c *optCtx) joinCost(left *planInfo, rest uint64, t int) (cost, rows float64) {
	scan := &c.scans[t]
	sel := 1.0
	for i := range c.conj {
		if c.conj[i].joins(rest, t) {
			sel *= c.conj[i].sel
		}
	}
	rows = max(left.rows*scan.rows*sel, 1)
	return left.cost + scan.cost + left.rows + scan.rows + rows, rows
}

// joinInfo builds the join of best(rest) with table t that joinCost costed.
func (c *optCtx) joinInfo(left *planInfo, rest uint64, t int, cost, rows float64) (*planInfo, error) {
	p := c.newPlan(nil, cost, rows, left.usesView)
	p.concat(left, &c.scans[t])
	var err error
	p.node, err = c.joinOn(left.node, left.width, rest, t, func(r expr.ColRef) (int, bool) { return c.ord(left, r) })
	return p, err
}

// joinOn joins a plan over the tables of rest, with rows of the given width,
// to the scan of table t under every conjunct that becomes fully bound:
// equijoin conjuncts between a left column and a t column become hash keys,
// every other one a join residual over the concatenated row. lookup resolves
// a column of rest to its ordinal in the left row.
func (c *optCtx) joinOn(left exec.Node, width int, rest uint64, t int, lookup func(expr.ColRef) (int, bool)) (exec.Node, error) {
	var lcols, rcols []int
	var residual []expr.Expr
	var miss error
	for i := range c.conj {
		cj := &c.conj[i]
		if !cj.joins(rest, t) {
			continue
		}
		if cj.equi {
			l, r := cj.l, cj.r
			if l.Tab == t {
				l, r = r, l
			}
			lo, ok := lookup(l)
			if !ok {
				return nil, errNoColumn(l)
			}
			lcols, rcols = append(lcols, lo), append(rcols, r.Col)
			continue
		}
		residual = append(residual, expr.MapColumns(cj.e, func(r expr.ColRef) expr.ColRef {
			if r.Tab == t {
				return expr.ColRef{Tab: 0, Col: width + r.Col}
			}
			lo, ok := lookup(r)
			if !ok {
				miss = errNoColumn(r)
			}
			return expr.ColRef{Tab: 0, Col: lo}
		}))
	}
	if miss != nil {
		return nil, miss
	}
	var resid expr.Expr
	if len(residual) > 0 {
		resid = expr.NewAnd(residual...)
	}
	if len(lcols) > 0 {
		return &exec.HashJoin{L: left, R: c.scans[t].node, LCols: lcols, RCols: rcols, Residual: resid}, nil
	}
	return &exec.NestedLoopJoin{L: left, R: c.scans[t].node, Pred: resid}, nil
}

// glueComponents joins disconnected components with cartesian products.
func (c *optCtx) glueComponents(full uint64) (*planInfo, error) {
	var acc *planInfo
	for remaining := full; remaining != 0; {
		// Grow the component of the lowest remaining table.
		comp, grown := uint64(0), remaining&-remaining
		for comp != grown {
			comp = grown
			for m := comp; m != 0; m &= m - 1 {
				grown |= c.nbr[bits.TrailingZeros64(m)]
			}
		}
		remaining &^= comp
		p := c.plan(comp)
		if p == nil {
			return nil, fmt.Errorf("opt: no plan for component %b", comp)
		}
		if acc == nil {
			acc = p
			continue
		}
		rows := acc.rows * p.rows
		glued := c.newPlan(&exec.NestedLoopJoin{L: acc.node, R: p.node}, acc.cost+p.cost+rows, rows, acc.usesView || p.usesView)
		glued.concat(acc, p)
		acc = glued
	}
	return acc, nil
}

// subsetViewPlan invokes the view-matching rule on the subexpression over a
// table subset and returns the memo entry of the cheapest substitute if it
// costs less than limit, nil otherwise.
func (c *optCtx) subsetViewPlan(mask uint64, limit float64) *planInfo {
	if !c.o.ruleOn() {
		return nil // before deriving the subexpression for nothing
	}
	p := c.substitutePlan(c.matchViews(c.subset(mask)), nil, limit)
	if p == nil {
		return nil
	}
	p.narrow = mask
	for m := mask; m != 0; m &= m - 1 {
		t := bits.TrailingZeros64(m)
		p.base[t] = int16(p.width) + 1
		p.width += len(c.refOuts[t])
	}
	return p
}

// subset returns the context of the subexpression over a table subset: its
// tables, every conjunct they bind, the referenced columns as outputs.
func (c *optCtx) subset(mask uint64) *core.QueryContext {
	c.outs = c.outs[:0]
	for m := mask; m != 0; m &= m - 1 {
		c.outs = append(c.outs, c.refOuts[bits.TrailingZeros64(m)]...)
	}
	return c.qc.Sub(mask, c.outs, 0, nil)
}

// substitutePlan costs every substitute — a full view scan or, when the
// compensating filter pins a declared index, a seek; one hash join per
// backjoin; a regrouping on groupBy where needed — from the conjuncts the
// matcher produced, and builds only the cheapest (the first on a tie), if it
// costs less than limit.
func (c *optCtx) substitutePlan(subs []*core.Substitute, groupBy []expr.Expr, limit float64) *planInfo {
	var win *core.Substitute
	var winSeek *exec.ViewScan
	var rows float64
	for _, sub := range subs {
		vrows := c.o.viewRows[sub.View.ID]
		est := estimator{v: sub.View}
		sel := 1.0
		for _, cj := range sub.Conjuncts() {
			sel *= est.conjunctSelectivity(cj)
		}
		filtered := max(vrows*sel, 1)
		cost := vrows + filtered
		var seek *exec.ViewScan
		if len(sub.Backjoins) == 0 {
			if seek = c.o.seekAccess(sub); seek != nil {
				cost = seekCost(filtered)
			}
		}
		// Each backjoin builds a hash table over the base table and probes
		// once per surviving view row.
		for _, bj := range sub.Backjoins {
			cost += float64(bj.Table.RowCount) + filtered
		}
		if sub.Regroup {
			filtered = estimateGroups(&c.est, groupBy, filtered)
			cost += filtered
		}
		if cost < limit {
			win, winSeek, limit, rows = sub, seek, cost, filtered
		}
	}
	if win == nil {
		return nil
	}
	if winSeek == nil {
		winSeek = &exec.ViewScan{View: win.View.Name, Filter: win.Filter, NCols: len(win.View.Def.Outputs)}
	}
	return c.newPlan(exec.BuildSubstitutePlanWithScan(win, winSeek), limit, rows, true)
}

// projectOutputs adds the final projection of an SPJ query.
func (c *optCtx) projectOutputs(p *planInfo) (*planInfo, error) {
	exprs := make([]expr.Expr, len(c.q.Outputs))
	for i, o := range c.q.Outputs {
		e, err := c.rewriteTo(p, o.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	node := &exec.Project{In: p.node, Exprs: exprs}
	return &planInfo{node: node, cost: p.cost + p.rows, rows: p.rows, usesView: p.usesView}, nil
}

// assembleAgg places the final group-by over the SPJ core.
func (c *optCtx) assembleAgg(p *planInfo) (*planInfo, error) {
	q := c.q
	groupBy := make([]expr.Expr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		e, err := c.rewriteTo(p, g)
		if err != nil {
			return nil, err
		}
		groupBy[i] = e
	}
	var aggs []exec.AggSpec
	var projExprs []expr.Expr
	for i, o := range q.Outputs {
		if o.Agg != nil {
			spec := exec.AggSpec{Num: exec.SimpleAgg{Kind: o.Agg.Kind}}
			if o.Agg.Arg != nil {
				e, err := c.rewriteTo(p, o.Agg.Arg)
				if err != nil {
					return nil, err
				}
				spec.Num.Arg = e
			}
			aggs = append(aggs, spec)
			projExprs = append(projExprs, expr.Col(0, len(groupBy)+len(aggs)-1))
			continue
		}
		pos, err := c.groupKeyPos(i)
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, expr.Col(0, pos))
	}
	groups := estimateGroups(&c.est, q.GroupBy, p.rows)
	node := &exec.Project{
		In:    &exec.HashAgg{In: p.node, GroupBy: groupBy, Aggs: aggs},
		Exprs: projExprs,
	}
	return &planInfo{node: node, cost: p.cost + p.rows + groups, rows: groups, usesView: p.usesView}, nil
}

// term identifies a scalar expression of the query up to normal form: a plain
// column by its reference (fp nil), anything else by the fingerprint the
// query's context keeps of it.
type term struct {
	col expr.ColRef
	fp  *expr.Fingerprint
}

func termOf(e expr.Expr, fp *expr.Fingerprint) term {
	if col, ok := e.(expr.Column); ok {
		return term{col: col.Ref}
	}
	return term{fp: fp}
}

func (a term) equal(b term) bool {
	return a.col == b.col && (a.fp == b.fp ||
		a.fp != nil && b.fp != nil && a.fp.Text == b.fp.Text && slices.Equal(a.fp.Cols, b.fp.Cols))
}

// groupKeyPos returns the position in the GROUP BY list of scalar output i.
func (c *optCtx) groupKeyPos(i int) (int, error) {
	e := c.q.Outputs[i].Expr
	out := termOf(e, c.qc.OutputFP(i))
	for gi, g := range c.q.GroupBy {
		if _, isConst := e.(expr.Const); isConst {
			if expr.Equal(e, g) {
				return gi, nil
			}
		} else if out.equal(termOf(g, c.qc.GroupFP(gi))) {
			return gi, nil
		}
	}
	return -1, fmt.Errorf("opt: output expression not in GROUP BY list")
}
