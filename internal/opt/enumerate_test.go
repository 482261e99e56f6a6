package opt

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// wideJoin joins n instances of orders: as a chain (instance i to i+1) or as a
// star (every instance to instance 0).
func wideJoin(t *testing.T, n int, star bool) *spjg.Query {
	q := &spjg.Query{}
	var preds []expr.Expr
	for i := 0; i < n; i++ {
		q.Tables = append(q.Tables, tr(t, "orders"))
		if i > 0 {
			from := i - 1
			if star {
				from = 0
			}
			preds = append(preds, expr.Eq(expr.Col(from, tpch.OOrderkey), expr.Col(i, tpch.OCustkey)))
		}
	}
	q.Where = expr.NewAnd(preds...)
	q.Outputs = []spjg.OutputColumn{
		{Name: "a", Expr: expr.Col(0, tpch.OTotalprice)},
		{Name: "b", Expr: expr.Col(n-1, tpch.OOrderdate)},
	}
	return q
}

// A chain of 20 tables has 210 connected subsets among 2²⁰ masks. Testing
// every mask took 180 ms and 8 MB before the first deadline poll; generating
// only the connected ones plans it in about a millisecond — to the plan the
// exhaustive enumeration produced (digests taken at the parent commit).
func TestWideChainPlansUnchanged(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	for n, want := range map[int]string{12: "1718ccb5cf0c18ad", 20: "e7195a534193bf04"} {
		res, err := o.Optimize(wideJoin(t, n, false))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(exec.Explain(res.Plan)))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("%d-table chain: plan digest %s, want %s\n%s", n, got, want, exec.Explain(res.Plan))
		}
	}
}

// A star of 20 tables has 2¹⁹ connected subsets, far more than 10 ms of
// planning: the deadline must be noticed inside the enumeration (the chain no
// longer lives long enough to meet one).
func TestWideJoinHonoursDeadline(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	q := wideJoin(t, 20, true)
	var took time.Duration
	for attempt := 0; attempt < 3; attempt++ { // a descheduled test process is not a late poll
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		_, err := o.OptimizeCtx(ctx, q)
		took = time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("OptimizeCtx under a 10 ms deadline = %v after %v, want context.DeadlineExceeded", err, took)
		}
		if took < 50*time.Millisecond {
			return
		}
	}
	t.Fatalf("OptimizeCtx returned %v after a 10 ms deadline, want under 50 ms", took)
}

// The enumeration by extension lists exactly the connected subsets, in size-
// then-value order, on random join graphs.
func TestEnumerateMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		q := &spjg.Query{Outputs: []spjg.OutputColumn{{Name: "a", Expr: expr.Col(0, 0)}}}
		var preds []expr.Expr
		for i := 0; i < n; i++ {
			q.Tables = append(q.Tables, tr(t, "orders"))
			for j := 0; j < i; j++ {
				if rng.Intn(n) < 2 {
					preds = append(preds, expr.Eq(expr.Col(j, tpch.OOrderkey), expr.Col(i, tpch.OCustkey)))
				}
			}
		}
		if rng.Intn(3) == 0 && n >= 3 { // a conjunct over three tables links all of them
			preds = append(preds, expr.NewCmp(expr.LT, expr.NewArith(expr.Add, expr.Col(0, 0), expr.Col(1, 0)), expr.Col(n-1, 0)))
		}
		if len(preds) > 0 {
			q.Where = expr.NewAnd(preds...)
		}
		c, err := o.newOptCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := newOracle(q).masks(); !slices.Equal(c.masks, want) {
			t.Fatalf("trial %d (%s): subsets %b, want %b", trial, q, c.masks, want)
		}
		for i, m := range c.masks {
			c.best[i] = &planInfo{width: i}
			if p := c.plan(m); p == nil || p.width != i {
				t.Fatalf("trial %d: plan(%b) = %v, want entry %d", trial, m, p, i)
			}
		}
		if c.plan(0) != nil || c.plan(1<<uint(n)) != nil {
			t.Fatalf("trial %d: plan of a subset outside the memo is not nil", trial)
		}
	}
}

// narrowed builds the context of a two-table join and a memo entry for
// lineitem as a view substitute would leave it: only the referenced columns.
func narrowed(t *testing.T, q *spjg.Query) (*optCtx, *planInfo) {
	c, err := NewOptimizer(db(t).Catalog, DefaultOptions()).newOptCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	left := c.newPlan(c.scans[0].node, 10, 10, true)
	left.base[0], left.narrow, left.width = 1, 1, len(c.refOuts[0])
	return c, left
}

// A column that a narrowed plan does not carry is an error wherever the memo
// looks an ordinal up — it used to read as ordinal 0, a wrong plan.
func TestSchemaMissIsAnError(t *testing.T) {
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "not available in plan schema") {
			t.Errorf("%s: error %v, want a column-not-available error", what, err)
		}
	}
	c, left := narrowed(t, joinQuery(t))
	if o, ok := c.ord(left, expr.ColRef{Tab: 0, Col: tpch.LQuantity}); !ok || o != int(c.refPos[0][tpch.LQuantity]) {
		t.Fatalf("ord of a carried column = %d, %v", o, ok)
	}
	for _, r := range []expr.ColRef{{Tab: 0, Col: tpch.LShipdate}, {Tab: 1, Col: 0}, {Tab: 2, Col: 0}, {Tab: 0, Col: 99}, {Tab: -1, Col: 0}} {
		if _, ok := c.ord(left, r); ok {
			t.Errorf("ord(%v) found a column the plan does not carry", r)
		}
	}
	_, err := c.rewriteTo(left, expr.Col(0, tpch.LShipdate))
	wantErr("rewriteTo", err)

	// joinInfo: hash key and residual over a left column the plan lost.
	cost, rows := c.joinCost(left, 1, 1)
	if _, err := c.joinInfo(left, 1, 1, cost, rows); err != nil {
		t.Fatalf("join on carried columns: %v", err)
	}
	c.refPos[0][tpch.LOrderkey] = -1
	_, err = c.joinInfo(left, 1, 1, cost, rows)
	wantErr("joinInfo hash key", err)
	q := joinQuery(t)
	q.Where = expr.NewAnd(q.Where, expr.NewCmp(expr.LT, expr.Col(0, tpch.LExtendedprice), expr.Col(1, tpch.OTotalprice)))
	c, left = narrowed(t, q)
	c.refPos[0][tpch.LExtendedprice] = -1
	_, err = c.joinInfo(left, 1, 1, cost, rows)
	wantErr("joinInfo residual", err)

	// preaggWith: block keys and partial sums over best(S1), and the block's
	// keys under the join with t.
	agg := joinQuery(t)
	agg.GroupBy = []expr.Expr{expr.Col(1, tpch.OTotalprice)}
	agg.Outputs = []spjg.OutputColumn{
		{Name: "p", Expr: expr.Col(1, tpch.OTotalprice)},
		{Name: "q", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
	}
	for _, lost := range []int{tpch.LOrderkey, tpch.LQuantity} {
		c, left = narrowed(t, agg)
		c.partialSums()
		if _, err := c.preaggWith(left, 1, 1); err != nil {
			t.Fatalf("pre-aggregation over carried columns: %v", err)
		}
		c.refPos[0][lost] = -1
		_, err = c.preaggWith(left, 1, 1)
		wantErr("preaggWith", err)
	}
	c, _ = narrowed(t, agg)
	c.partialSums()
	if _, ok := c.blockShape(1, 1); !ok {
		t.Fatal("no block")
	}
	if c.pre.keyOf(term{col: expr.ColRef{Tab: 0, Col: tpch.LOrderkey}}) < 0 || c.pre.keyOf(term{col: expr.ColRef{Tab: 0, Col: tpch.LPartkey}}) >= 0 {
		t.Error("keyOf: the block's keys are not its join column")
	}
}
