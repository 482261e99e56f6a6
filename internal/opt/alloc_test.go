//go:build !race

package opt_test

import (
	"runtime"
	"strings"
	"testing"

	"matview/internal/expr"
	"matview/internal/opt"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// The race detector changes what sync.Pool keeps and what escapes, so the
// allocation guards only mean something without it.

// allocQueries are one 3-table and one 5-table aggregation query over the
// TPC-H schema, with the objects and bytes one Optimize of each may allocate
// against the 1000 §5 views: 1.2 × what PR 23 measured (343 objects / 19.9 KB
// and 416 / 29.3 KB; 1014 / 59.1 KB and 2230 / 150.5 KB before it).
func allocQueries(o *opt.Optimizer) []struct {
	name           string
	q              *spjg.Query
	objects, bytes float64
} {
	cat := o.Matcher().Catalog()
	tab := func(name string) spjg.TableRef { return spjg.TableRef{Table: cat.Table(name)} }
	sum := func(name string, tb, col int) spjg.OutputColumn {
		return spjg.OutputColumn{Name: name, Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(tb, col)}}
	}
	three := &spjg.Query{
		Tables: []spjg.TableRef{tab("lineitem"), tab("orders"), tab("customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LQuantity), expr.CInt(30))),
		GroupBy: []expr.Expr{expr.Col(2, tpch.CNationkey)},
		Outputs: []spjg.OutputColumn{{Name: "nk", Expr: expr.Col(2, tpch.CNationkey)}, sum("q", 0, tpch.LQuantity)},
	}
	five := &spjg.Query{
		Tables: []spjg.TableRef{tab("lineitem"), tab("orders"), tab("customer"), tab("nation"), tab("part")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
			expr.Eq(expr.Col(2, tpch.CNationkey), expr.Col(3, tpch.NNationkey)),
			expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(4, tpch.PPartkey)),
			expr.NewCmp(expr.GE, expr.Col(0, tpch.LQuantity), expr.CInt(10)),
			expr.NewCmp(expr.LE, expr.Col(4, tpch.PSize), expr.CInt(20))),
		GroupBy: []expr.Expr{expr.Col(3, tpch.NName), expr.Col(4, tpch.PBrand)},
		Outputs: []spjg.OutputColumn{{Name: "n", Expr: expr.Col(3, tpch.NName)}, {Name: "b", Expr: expr.Col(4, tpch.PBrand)},
			sum("p", 0, tpch.LExtendedprice), {Name: "c", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}}},
	}
	return []struct {
		name           string
		q              *spjg.Query
		objects, bytes float64
	}{{"3 tables", three, 420, 23900}, {"5 tables", five, 520, 35800}}
}

func TestOptimizeAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 1000 views")
	}
	o, _ := paperSetup(t, 1000)
	for _, c := range allocQueries(o) {
		res, err := o.Optimize(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Stats.SubstitutesProduced == 0 {
			t.Fatalf("%s: no view matched any subexpression; the guard would measure nothing", c.name)
		}
		var before, after runtime.MemStats
		const runs = 50
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			o.Optimize(c.q)
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %d invocations, %d substitutes: %.0f objects, %.0f bytes per Optimize", c.name,
			res.Stats.Invocations, res.Stats.SubstitutesProduced, objects, bytes)
		if objects > c.objects || bytes > c.bytes {
			t.Errorf("%s: %.0f objects and %.0f bytes per Optimize, budget %.0f and %.0f", c.name, objects, bytes, c.objects, c.bytes)
		}
	}
}

// Nothing between the query's one analysis and the assembly of the final
// plan may construct a Go map, or convert, split, normalize, fingerprint or
// analyse a predicate again: read off the allocation profile of a second
// Optimize of the same query, every allocation sampled. Building the plan of
// a group's winning substitute (exec) is the one place allowed to normalize.
func TestOptimizeLoopAllocatesNoMapAndAnalysesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 1000 views")
	}
	o, _ := paperSetup(t, 1000)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	for _, c := range allocQueries(o) {
		if _, err := o.Optimize(c.q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.MemProfileRate = 1
	stacksBefore := profileStacks()
	for _, c := range allocQueries(o) {
		o.Optimize(c.q)
	}
	runtime.MemProfileRate = 0
	sawLoop := false
	for stack, n := range profileStacks() {
		if n == stacksBefore[stack] || !strings.Contains(stack, "opt.(*Optimizer).OptimizeCtx") {
			continue
		}
		inLoop := false
		for _, fn := range []string{"opt.(*optCtx).matchViews", "opt.(*optCtx).substitutePlan", "opt.(*optCtx).joinInfo", "opt.(*optCtx).preaggWith"} {
			inLoop = inLoop || strings.Contains(stack, fn)
		}
		sawLoop = sawLoop || inLoop
		for _, fn := range []string{"runtime.makemap", "internal/runtime/maps.", "runtime.mapassign"} {
			if strings.Contains(stack, fn) {
				t.Errorf("a map is built during Optimize:\n%s", stack)
			}
		}
		if !inLoop || strings.Contains(stack, "exec.BuildSubstitutePlanWithScan") {
			continue
		}
		for _, fn := range []string{"expr.ToCNF", "expr.SplitPredicate", "expr.SplitConjuncts", "expr.Normalize", "expr.NewFingerprint", "spjg.Analyze"} {
			if strings.Contains(stack, fn) {
				t.Errorf("%s runs inside the memo loop:\n%s", fn, stack)
			}
		}
	}
	if !sawLoop {
		t.Fatal("the profile shows no allocation inside the memo loop; the check sees nothing")
	}
}

// profileStacks returns the allocation count per call stack (function names
// joined by newlines) of the heap profile so far.
func profileStacks() map[string]int64 {
	runtime.GC() // the profile lags by up to two collections
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	records := make([]runtime.MemProfileRecord, n+100)
	n, ok := runtime.MemProfile(records, true)
	if !ok {
		panic("heap profile grew while it was read")
	}
	out := map[string]int64{}
	for _, r := range records[:n] {
		var sb strings.Builder
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			sb.WriteString(f.Function + "\n")
			if !more {
				break
			}
		}
		out[sb.String()] += r.AllocObjects
	}
	return out
}
