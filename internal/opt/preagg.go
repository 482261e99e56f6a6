package opt

import (
	"strconv"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
)

// preagg is the part of the pre-aggregation alternatives that does not depend
// on which table is joined last, and the scratch the per-table part reuses.
type preagg struct {
	// sums lists the distinct SUM/AVG arguments of the query, sumOf the index
	// into it per query output (-1 for a scalar output or COUNT(*)).
	sums  []sumArg
	sumOf []int

	keys     []term      // the block's deduplicated grouping keys,
	keyExprs []expr.Expr // and the same as expressions
	groupKey []int       // per GROUP BY expression on the block's side: its key
	fps      []*expr.Fingerprint
}

// sumArg is a deduplicated partial-sum argument: its term, the query
// context's fingerprint of it, the tables it reads, its block output.
type sumArg struct {
	term
	argFP *expr.Fingerprint
	mask  uint64
	out   spjg.OutputColumn
}

var countStar = &spjg.Aggregate{Kind: spjg.AggCountStar}

// preaggAlternatives generates the eager-aggregation plans of Example 4: for
// each table t joined at the top, group the remaining tables S1 first
// (keyed by the S1-side grouping expressions plus the join columns), join
// with t, and re-aggregate. The pre-aggregated block is itself an SPJG
// expression, so the view-matching rule fires on it — which is exactly how
// view v4 answers the c_nationkey rollup in the paper.
//
// Correctness: every S1 row in a pre-group shares the join key, so each
// group joins the same t rows as its member rows did, and SUM/COUNT over the
// partial aggregates reproduce the original aggregates.
func (c *optCtx) preaggAlternatives(full uint64) (*planInfo, error) {
	c.partialSums()
	var bestAlt *planInfo
	for t := range c.q.Tables {
		s1 := full &^ (1 << t)
		left := c.plan(s1)
		if left == nil || c.nbr[t]&s1 == 0 {
			continue
		}
		alt, err := c.preaggWith(left, s1, t)
		if err != nil {
			return nil, err
		}
		if alt != nil && (bestAlt == nil || alt.cost < bestAlt.cost) {
			bestAlt = alt
		}
	}
	return bestAlt, nil
}

// partialSums lists the query's distinct SUM/AVG arguments: what every
// pre-aggregated block sums.
func (c *optCtx) partialSums() {
	pre := &c.pre
	pre.sumOf = make([]int, len(c.q.Outputs))
	for i, o := range c.q.Outputs {
		pre.sumOf[i] = -1
		if o.Agg == nil || o.Agg.Kind == spjg.AggCountStar {
			continue
		}
		fp := c.qc.OutputFP(i)
		arg := termOf(o.Agg.Arg, fp)
		for k := range pre.sums {
			if pre.sums[k].equal(arg) {
				pre.sumOf[i] = k
				break
			}
		}
		if pre.sumOf[i] < 0 {
			pre.sumOf[i] = len(pre.sums)
			pre.sums = append(pre.sums, sumArg{term: arg, argFP: fp, mask: tabMask(fp.Cols), out: spjg.OutputColumn{
				Name: "sum" + strconv.Itoa(len(pre.sums)), Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: o.Agg.Arg}}})
		}
	}
}

func tabMask(cols []expr.ColRef) (mask uint64) {
	for _, r := range cols {
		mask |= 1 << uint(r.Tab)
	}
	return mask
}

// keyOf returns the position of the block key equal to k, -1 when there is
// none.
func (pre *preagg) keyOf(k term) int {
	for i := range pre.keys {
		if pre.keys[i].equal(k) {
			return i
		}
	}
	return -1
}

// addKey makes column r a block key unless it is one.
func (pre *preagg) addKey(r expr.ColRef) {
	if pre.keyOf(term{col: r}) < 0 {
		pre.keys, pre.keyExprs = append(pre.keys, term{col: r}), append(pre.keyExprs, expr.ColE(r))
	}
}

// blockShape derives the pre-aggregated block for joining table t last: its
// keys (pre.keys, pre.keyExprs) — the S1-side grouping expressions plus every
// S1 column a spanning conjunct references — and its output list (c.outs,
// fingerprints in pre.fps): keys, count, partial sums. It returns the spanning
// conjuncts' selectivity, and false when the query cannot be split this way.
func (c *optCtx) blockShape(s1 uint64, t int) (joinSel float64, ok bool) {
	q, pre := c.q, &c.pre
	bit := uint64(1) << uint(t)

	// Every aggregate argument must live entirely on the S1 side.
	for i := range pre.sums {
		if pre.sums[i].mask&^s1 != 0 {
			return 0, false
		}
	}

	// Grouping expressions must each live on exactly one side; the S1-side
	// ones are the first keys of the block.
	pre.keys, pre.keyExprs = pre.keys[:0], pre.keyExprs[:0]
	pre.groupKey = append(pre.groupKey[:0], make([]int, len(q.GroupBy))...)
	for gi, g := range q.GroupBy {
		fp := c.qc.GroupFP(gi)
		switch m := tabMask(fp.Cols); {
		case m&^s1 == 0:
			if pre.groupKey[gi] = pre.keyOf(termOf(g, fp)); pre.groupKey[gi] < 0 {
				pre.groupKey[gi] = len(pre.keys)
				pre.keys, pre.keyExprs = append(pre.keys, termOf(g, fp)), append(pre.keyExprs, g)
			}
		case m&^bit == 0:
			pre.groupKey[gi] = -1
		default:
			return 0, false
		}
	}

	// Spanning conjuncts: their S1-side columns join the pre-agg keys —
	// first those of the hash pairs, then those of the residuals.
	joinSel = 1.0
	spanning := 0
	for i := range c.conj {
		if cj := &c.conj[i]; cj.joins(s1, t) {
			spanning++
			joinSel *= cj.sel
			if cj.equi && cj.l.Tab == t {
				pre.addKey(cj.r)
			} else if cj.equi {
				pre.addKey(cj.l)
			}
		}
	}
	if spanning == 0 {
		return 0, false
	}
	for i := range c.conj {
		if cj := &c.conj[i]; cj.joins(s1, t) && !cj.equi {
			for _, col := range expr.Columns(cj.e) {
				if col.Tab != t {
					pre.addKey(col)
				}
			}
		}
	}

	c.outs, pre.fps = c.outs[:0], pre.fps[:0]
	for i, k := range pre.keyExprs {
		c.outs = append(c.outs, spjg.OutputColumn{Name: keyName(q, k, i), Expr: k})
		pre.fps = append(pre.fps, pre.keys[i].fp)
	}
	c.outs = append(c.outs, spjg.OutputColumn{Name: "cnt", Agg: countStar})
	pre.fps = append(pre.fps, nil)
	for i := range pre.sums {
		c.outs = append(c.outs, pre.sums[i].out)
		pre.fps = append(pre.fps, pre.sums[i].argFP)
	}
	return joinSel, true
}

// block returns the context of the block blockShape derived over S1.
func (c *optCtx) block(s1 uint64) *core.QueryContext {
	return c.qc.Sub(s1, c.outs, len(c.pre.keys), c.pre.fps)
}

// preaggWith builds the alternative that joins table t to the pre-aggregated
// rest S1. The block is a HashAgg over best(S1) or a view substitute for its
// SPJG expression (the inner query block of Example 4): cost the first, match
// the second, build the cheaper.
func (c *optCtx) preaggWith(left *planInfo, s1 uint64, t int) (*planInfo, error) {
	q, pre := c.q, &c.pre
	joinSel, ok := c.blockShape(s1, t)
	if !ok {
		return nil, nil
	}
	keys := pre.keyExprs
	blockWidth := len(keys) + 1 + len(pre.sums)
	cntPos := len(keys)
	preGroups := estimateGroups(&c.est, pre.keyExprs, left.rows)
	blockCost := left.cost + left.rows + preGroups
	block := c.substitutePlan(c.matchViews(c.block(s1)), pre.keyExprs, blockCost)
	if block == nil {
		groupBy := make([]expr.Expr, len(keys))
		aggs := make([]exec.AggSpec, 1, 1+len(pre.sums))
		aggs[0] = exec.AggSpec{Num: exec.SimpleAgg{Kind: spjg.AggCountStar}}
		for i, k := range keys {
			e, err := c.rewriteTo(left, k)
			if err != nil {
				return nil, err
			}
			groupBy[i] = e
		}
		for i := range pre.sums {
			e, err := c.rewriteTo(left, pre.sums[i].out.Agg.Arg)
			if err != nil {
				return nil, err
			}
			aggs = append(aggs, exec.AggSpec{Num: exec.SimpleAgg{Kind: spjg.AggSum, Arg: e}})
		}
		block = &planInfo{
			node: &exec.HashAgg{In: left.node, GroupBy: groupBy, Aggs: aggs},
			cost: blockCost, rows: preGroups, usesView: left.usesView,
		}
	}

	// Join the block with t; its keys carry the S1 columns the join needs.
	scan := &c.scans[t]
	joinNode, err := c.joinOn(block.node, blockWidth, s1, t, func(r expr.ColRef) (int, bool) {
		pos := pre.keyOf(term{col: r})
		return pos, pos >= 0
	})
	if err != nil {
		return nil, err
	}
	joinRows := max(block.rows*scan.rows*joinSel, 1)
	joinCost := block.cost + scan.cost + block.rows + scan.rows + joinRows

	// Final aggregation over the joined rows.
	finalKeys := make([]expr.Expr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if pos := pre.groupKey[i]; pos >= 0 {
			finalKeys[i] = expr.Col(0, pos)
		} else {
			finalKeys[i] = expr.MapColumns(g, func(col expr.ColRef) expr.ColRef {
				return expr.ColRef{Tab: 0, Col: blockWidth + col.Col}
			})
		}
	}
	var finalAggs []exec.AggSpec
	var projExprs []expr.Expr
	for i, o := range q.Outputs {
		if o.Agg == nil {
			pos, err := c.groupKeyPos(i)
			if err != nil {
				return nil, err
			}
			projExprs = append(projExprs, expr.Col(0, pos))
			continue
		}
		// COUNT(*) sums the block's counts, SUM its partial sums, and AVG
		// divides the one by the other.
		spec := exec.AggSpec{Num: exec.SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, cntPos)}}
		if o.Agg.Kind != spjg.AggCountStar {
			spec.Num.Arg = expr.Col(0, len(keys)+1+pre.sumOf[i])
		}
		if o.Agg.Kind == spjg.AggAvg {
			spec.Den = &exec.SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, cntPos)}
		}
		finalAggs = append(finalAggs, spec)
		projExprs = append(projExprs, expr.Col(0, len(finalKeys)+len(finalAggs)-1))
	}
	finalGroups := estimateGroups(&c.est, q.GroupBy, joinRows)
	node := &exec.Project{
		In:    &exec.HashAgg{In: joinNode, GroupBy: finalKeys, Aggs: finalAggs},
		Exprs: projExprs,
	}
	return &planInfo{node: node, cost: joinCost + joinRows + finalGroups, rows: finalGroups, usesView: block.usesView}, nil
}

// keyName names a pre-agg key column for diagnostics.
func keyName(q *spjg.Query, k expr.Expr, i int) string {
	if col, ok := k.(expr.Column); ok {
		return q.Tables[col.Ref.Tab].Table.Columns[col.Ref.Col].Name
	}
	return "k" + strconv.Itoa(i)
}
