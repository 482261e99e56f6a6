package opt

import (
	"math/bits"
	"sort"
	"strconv"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// This file keeps the optimizer's former per-subexpression path as the oracle
// of the differential tests: every memo group and pre-aggregation block
// written out as an spjg.Query of its own (tables renumbered, conjuncts
// remapped), to be analysed from nothing by Matcher.NewQueryContext; and the
// former build-then-cost handling of substitutes. The code is the pre-PR 23
// code with receivers renamed; it shares nothing with optCtx.

type oracleCtx struct {
	q         *spjg.Query
	conjuncts []expr.Expr
	conjTabs  []map[int]bool
	refCols   [][]int
	adj       [][]bool
}

func newOracle(q *spjg.Query) *oracleCtx {
	c := &oracleCtx{q: q}
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
			ref[t][0] = true
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
		for a := range tabs {
			for b := range tabs {
				if a != b {
					c.adj[a][b] = true
				}
			}
		}
	}
	return c
}

func (c *oracleCtx) connected(mask uint64) bool {
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

// masks is the former enumeration: every mask tested for connectivity, sorted
// by size, then value.
func (c *oracleCtx) masks() []uint64 {
	var masks []uint64
	for m := uint64(1); m < 1<<len(c.q.Tables); m++ {
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
	return masks
}

func (c *oracleCtx) linked(mask uint64, t int) bool {
	for u := 0; u < len(c.adj); u++ {
		if mask&(1<<u) != 0 && c.adj[u][t] {
			return true
		}
	}
	return false
}

// subTables renumbers the tables of a subset; it returns the subexpression
// with its FROM list set, the subset's instances, and the remapping of
// expressions.
func (c *oracleCtx) subTables(mask uint64) (*spjg.Query, []int, func(expr.Expr) expr.Expr) {
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
	return sub, tabs, remap
}

// subsetExpr builds the SPJG subexpression induced by a table subset: its
// tables, every conjunct fully contained in the subset, and the referenced
// columns as outputs. It also returns the subset's instances in order.
func (c *oracleCtx) subsetExpr(mask uint64) (*spjg.Query, []int) {
	sub, tabs, _ := c.subTables(mask)
	for lt, t := range tabs {
		tbl := c.q.Tables[t].Table
		for _, col := range c.refCols[t] {
			sub.Outputs = append(sub.Outputs, spjg.OutputColumn{
				Name: tbl.Columns[col].Name,
				Expr: expr.Col(lt, col),
			})
		}
	}
	return sub, tabs
}

type oracleSum struct {
	arg expr.Expr
	fp  string
}

// blockExpr derives the pre-aggregated block for joining table t last the way
// preaggWith used to — sums and keys deduplicated on fingerprintKey strings —
// and builds its SPJG expression; nil when the query cannot be split so.
func (c *oracleCtx) blockExpr(s1 uint64, t int) (*spjg.Query, []int) {
	q := c.q
	onS1 := func(e expr.Expr) bool {
		for tb := range expr.TablesUsed(e) {
			if s1&(1<<tb) == 0 {
				return false
			}
		}
		return true
	}
	onT := func(e expr.Expr) bool {
		for tb := range expr.TablesUsed(e) {
			if tb != t {
				return false
			}
		}
		return true
	}
	var sums []oracleSum
	sumPos := map[string]int{}
	for _, o := range q.Outputs {
		if o.Agg == nil || o.Agg.Kind == spjg.AggCountStar {
			continue
		}
		if !onS1(o.Agg.Arg) {
			return nil, nil
		}
		fp := fingerprintKey(o.Agg.Arg)
		if _, dup := sumPos[fp]; !dup {
			sumPos[fp] = len(sums)
			sums = append(sums, oracleSum{arg: o.Agg.Arg, fp: fp})
		}
	}
	var g1 []expr.Expr
	for _, g := range q.GroupBy {
		switch {
		case onS1(g):
			g1 = append(g1, g)
		case onT(g):
		default:
			return nil, nil
		}
	}
	var hashLeft []expr.ColRef
	var residuals []expr.Expr
	for i, cj := range c.conjuncts {
		tabs := c.conjTabs[i]
		if len(tabs) < 2 || !tabs[t] {
			continue
		}
		if cmp, ok := cj.(expr.Cmp); ok && cmp.Op == expr.EQ {
			lc, lok := cmp.L.(expr.Column)
			rc, rok := cmp.R.(expr.Column)
			if lok && rok {
				switch {
				case lc.Ref.Tab != t && rc.Ref.Tab == t:
					hashLeft = append(hashLeft, lc.Ref)
					continue
				case rc.Ref.Tab != t && lc.Ref.Tab == t:
					hashLeft = append(hashLeft, rc.Ref)
					continue
				}
			}
		}
		residuals = append(residuals, cj)
	}
	if len(hashLeft) == 0 && len(residuals) == 0 {
		return nil, nil
	}
	var keys []expr.Expr
	keyPos := map[string]int{}
	addKey := func(e expr.Expr) {
		fp := fingerprintKey(e)
		if _, ok := keyPos[fp]; !ok {
			keyPos[fp] = len(keys)
			keys = append(keys, e)
		}
	}
	for _, g := range g1 {
		addKey(g)
	}
	for _, l := range hashLeft {
		addKey(expr.ColE(l))
	}
	for _, r := range residuals {
		for _, col := range expr.Columns(r) {
			if col.Tab != t {
				addKey(expr.ColE(col))
			}
		}
	}

	sub, tabs, remap := c.subTables(s1)
	for i, k := range keys {
		rk := remap(k)
		sub.GroupBy = append(sub.GroupBy, rk)
		sub.Outputs = append(sub.Outputs, spjg.OutputColumn{Name: keyName(c.q, k, i), Expr: rk})
	}
	sub.Outputs = append(sub.Outputs, spjg.OutputColumn{
		Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}})
	for i, s := range sums {
		sub.Outputs = append(sub.Outputs, spjg.OutputColumn{
			Name: "sum" + strconv.Itoa(i), Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: remap(s.arg)}})
	}
	return sub, tabs
}

// fingerprintKey is a total identity key for a query-space expression.
func fingerprintKey(e expr.Expr) string {
	fp := expr.NewFingerprint(expr.Normalize(e))
	out := fp.Text
	for _, c := range fp.Cols {
		out += "|" + strconv.Itoa(c.Tab) + "." + strconv.Itoa(c.Col)
	}
	return out
}

// oracleSelectivity estimates the selectivity of a substitute's compensating
// filter by translating view-output references back to the view definition's
// base columns and converting the filter to CNF.
func oracleSelectivity(sub *core.Substitute) float64 {
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

// oracleBuild assembles a substitute's physical plan and estimates its access
// cost, building before costing.
func (o *Optimizer) oracleBuild(sub *core.Substitute) (node exec.Node, cost, filtered float64) {
	vrows := o.viewRows[sub.View.ID]
	filtered = vrows * oracleSelectivity(sub)
	if filtered < 1 {
		filtered = 1
	}
	scan := &exec.ViewScan{View: sub.View.Name, Filter: sub.Filter, NCols: len(sub.View.Def.Outputs)}
	cost = vrows + filtered
	if len(sub.Backjoins) == 0 {
		if seek := o.seekAccess(sub); seek != nil {
			scan = seek
			cost = seekCost(filtered)
		}
	} else {
		for _, bj := range sub.Backjoins {
			cost += float64(bj.Table.RowCount) + filtered
		}
	}
	return exec.BuildSubstitutePlanWithScan(sub, scan), cost, filtered
}

// oracleWinner is the former build-then-cost choice among the substitutes of
// one invocation: every substitute built, the cheapest kept (the first on a
// tie) if it beats limit. groupBy is what a regrouping substitute groups on.
func (c *optCtx) oracleWinner(subs []*core.Substitute, groupBy []expr.Expr, limit float64) (exec.Node, float64, float64) {
	var node exec.Node
	var rows float64
	for _, sub := range subs {
		n, cost, filtered := c.o.oracleBuild(sub)
		if sub.Regroup {
			filtered = estimateGroups(&c.est, groupBy, filtered)
			cost += filtered
		}
		if cost < limit {
			node, limit, rows = n, cost, filtered
		}
	}
	return node, limit, rows
}
