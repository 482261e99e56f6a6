package opt

import (
	"testing"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/storage"
	"matview/internal/tpch"
)

var (
	testDB  *storage.Database
	testErr error
)

// materialize stores the rows of a view definition under name — what a
// maintainer's Build and Install do for a maintained view.
func materialize(db *storage.Database, name string, def *spjg.Query) (*storage.MaterializedView, error) {
	rows, err := exec.RunQuery(db, def)
	if err != nil {
		return nil, err
	}
	return db.PutView(name, storage.StoreOf(len(def.Outputs), rows))
}

func db(t *testing.T) *storage.Database {
	t.Helper()
	if testDB == nil && testErr == nil {
		testDB, testErr = tpch.NewDatabase(0.001, 7)
	}
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testDB
}

func tr(t *testing.T, name string) spjg.TableRef {
	return spjg.TableRef{Table: db(t).Catalog.Table(name)}
}

// run optimizes and executes a query, comparing against the reference plan.
func runAndCompare(t *testing.T, o *Optimizer, q *spjg.Query) *Result {
	t.Helper()
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v\n%s", err, q.String())
	}
	got, err := res.Plan.Run(db(t))
	if err != nil {
		t.Fatalf("run optimized plan: %v\n%s", err, exec.Explain(res.Plan))
	}
	want, err := exec.RunQuery(db(t), q)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.SameRows(got, want) {
		t.Fatalf("optimized plan result differs from reference (%d vs %d rows)\nplan:\n%s",
			len(got), len(want), exec.Explain(res.Plan))
	}
	return res
}

func joinQuery(t *testing.T) *spjg.Query {
	// SELECT l_orderkey, l_quantity, o_totalprice
	// FROM lineitem, orders
	// WHERE l_orderkey = o_orderkey AND l_partkey <= 100
	return &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(100)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	}
}

func TestOptimizeWithoutViews(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, Options{Match: DefaultOptions().Match})
	res := runAndCompare(t, o, joinQuery(t))
	if res.UsesView {
		t.Error("no views registered but plan uses a view")
	}
	if res.Stats.Invocations != 0 {
		t.Errorf("invocations = %d without views", res.Stats.Invocations)
	}
}

func TestOptimizeUsesMatchingView(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where:  expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	}
	if _, err := o.RegisterView("li_orders", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db(t), "li_orders", vdef); err != nil {
		t.Fatal(err)
	}
	o.SetViewRowCount("li_orders", db(t).View("li_orders").RowCount())

	res := runAndCompare(t, o, joinQuery(t))
	if !res.UsesView {
		t.Fatalf("plan should use the view:\n%s", exec.Explain(res.Plan))
	}
	if res.Stats.SubstitutesProduced == 0 || res.Stats.Invocations == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestCostBasedRejection(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where:  expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	}
	if _, err := o.RegisterView("huge", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db(t), "huge", vdef); err != nil {
		t.Fatal(err)
	}
	// Pretend the view is enormous: the optimizer must prefer the base plan.
	o.SetViewRowCount("huge", 1<<40)
	res := runAndCompare(t, o, joinQuery(t))
	if res.UsesView {
		t.Fatal("optimizer chose an absurdly expensive view")
	}
	// Substitutes were still produced — the decision was cost-based, not
	// heuristic (§1).
	if res.Stats.SubstitutesProduced == 0 {
		t.Error("no substitutes produced")
	}
}

func TestNoSubstitutesConfig(t *testing.T) {
	opts := DefaultOptions()
	opts.NoSubstitutes = true
	o := NewOptimizer(db(t).Catalog, opts)
	vdef := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
		},
	}
	if _, err := o.RegisterView("v", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db(t), "v", vdef); err != nil {
		t.Fatal(err)
	}
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Where:  expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(50)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	}
	res := runAndCompare(t, o, q)
	if res.UsesView {
		t.Fatal("NoSubstitutes must never use views")
	}
	if res.Stats.SubstitutesProduced == 0 {
		t.Error("matching analysis should still have run and matched")
	}
}

func TestFilterTreeConfigsAgree(t *testing.T) {
	mk := func(useFilter bool) *Optimizer {
		opts := DefaultOptions()
		opts.UseFilterTree = useFilter
		o := NewOptimizer(db(t).Catalog, opts)
		defs := []*spjg.Query{
			{
				Tables: []spjg.TableRef{tr(t, "lineitem")},
				Outputs: []spjg.OutputColumn{
					{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
					{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
				},
			},
			{
				Tables: []spjg.TableRef{tr(t, "orders")},
				Where:  expr.NewCmp(expr.GT, expr.Col(0, tpch.OTotalprice), expr.CInt(1000)),
				Outputs: []spjg.OutputColumn{
					{Name: "o_orderkey", Expr: expr.Col(0, tpch.OOrderkey)},
					{Name: "o_totalprice", Expr: expr.Col(0, tpch.OTotalprice)},
				},
			},
		}
		for i, d := range defs {
			name := []string{"va", "vb"}[i]
			if _, err := o.RegisterView(name, d); err != nil {
				t.Fatal(err)
			}
			if _, err := materialize(db(t), name, d); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Where:  expr.NewCmp(expr.GT, expr.Col(0, tpch.LPartkey), expr.CInt(200)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
		},
	}
	withF := mk(true)
	withoutF := mk(false)
	r1 := runAndCompare(t, withF, q)
	r2 := runAndCompare(t, withoutF, q)
	if r1.Stats.SubstitutesProduced != r2.Stats.SubstitutesProduced {
		t.Errorf("substitute counts differ: filter %d vs none %d",
			r1.Stats.SubstitutesProduced, r2.Stats.SubstitutesProduced)
	}
	if r1.UsesView != r2.UsesView {
		t.Error("final plans disagree on view usage")
	}
	// Without the filter, every view is checked on each invocation.
	if r2.Stats.CandidatesChecked != r2.Stats.Invocations*int64(withoutF.NumViews()) {
		t.Errorf("no-filter candidates = %d, want %d",
			r2.Stats.CandidatesChecked, r2.Stats.Invocations*int64(withoutF.NumViews()))
	}
	if r1.Stats.CandidatesChecked >= r2.Stats.CandidatesChecked {
		t.Errorf("filter tree did not reduce candidates: %d vs %d",
			r1.Stats.CandidatesChecked, r2.Stats.CandidatesChecked)
	}
}

func TestSubexpressionViewUse(t *testing.T) {
	// A view covering lineitem ⋈ orders should be usable inside a
	// three-table query that also joins part.
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where:  expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_quantity", Expr: expr.Col(0, tpch.LQuantity)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
		},
	}
	if _, err := o.RegisterView("lo", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db(t), "lo", vdef); err != nil {
		t.Fatal(err)
	}
	o.SetViewRowCount("lo", db(t).View("lo").RowCount())

	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders"), tr(t, "part")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(0, tpch.LPartkey), expr.Col(2, tpch.PPartkey)),
			expr.NewCmp(expr.GT, expr.Col(2, tpch.PRetailprice), expr.CInt(1500)),
		),
		Outputs: []spjg.OutputColumn{
			{Name: "l_orderkey", Expr: expr.Col(0, tpch.LOrderkey)},
			{Name: "o_totalprice", Expr: expr.Col(1, tpch.OTotalprice)},
			{Name: "p_name", Expr: expr.Col(2, tpch.PName)},
		},
	}
	res := runAndCompare(t, o, q)
	if !res.UsesView {
		t.Fatalf("subexpression view not used:\n%s", exec.Explain(res.Plan))
	}
}

func TestAggregationQueryOptimization(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	// Aggregation view grouped finer than the query.
	vdef := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey), expr.Col(0, tpch.LSuppkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "l_suppkey", Expr: expr.Col(0, tpch.LSuppkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	if _, err := o.RegisterView("psq", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(db(t), "psq", vdef); err != nil {
		t.Fatal(err)
	}
	o.SetViewRowCount("psq", db(t).View("psq").RowCount())

	q := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.LPartkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "l_partkey", Expr: expr.Col(0, tpch.LPartkey)},
			{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	res := runAndCompare(t, o, q)
	if !res.UsesView {
		t.Fatalf("aggregation rollup view not used:\n%s", exec.Explain(res.Plan))
	}
}

// TestExample4EndToEnd reproduces §3.3 Example 4 through the optimizer: the
// query groups lineitem⋈orders⋈customer on c_nationkey; view v4 groups
// lineitem⋈orders on o_custkey. Only the pre-aggregation rule exposes the
// inner block that v4 matches.
func TestExample4EndToEnd(t *testing.T) {
	gross := expr.NewArith(expr.Mul, expr.Col(0, tpch.LQuantity), expr.Col(0, tpch.LExtendedprice))
	v4def := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where:   expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		GroupBy: []expr.Expr{expr.Col(1, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(1, tpch.OCustkey)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "revenue", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: gross}},
		},
	}
	query := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders"), tr(t, "customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
		),
		GroupBy: []expr.Expr{expr.Col(2, tpch.CNationkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "c_nationkey", Expr: expr.Col(2, tpch.CNationkey)},
			{Name: "rev", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: gross}},
		},
	}

	run := func(preagg bool) *Result {
		opts := DefaultOptions()
		opts.EnablePreAggregation = preagg
		o := NewOptimizer(db(t).Catalog, opts)
		if _, err := o.RegisterView("v4", v4def); err != nil {
			t.Fatal(err)
		}
		if _, err := materialize(db(t), "v4", v4def); err != nil {
			t.Fatal(err)
		}
		o.SetViewRowCount("v4", db(t).View("v4").RowCount())
		return runAndCompare(t, o, query)
	}

	with := run(true)
	if !with.UsesView {
		t.Fatalf("Example 4 requires pre-aggregation + view matching:\n%s", exec.Explain(with.Plan))
	}
	without := run(false)
	if without.UsesView {
		t.Fatalf("v4 must be unusable without the pre-aggregation rule:\n%s", exec.Explain(without.Plan))
	}
	// The rule also fires on the pre-aggregated block, increasing invocations.
	if with.Stats.Invocations <= without.Stats.Invocations {
		t.Errorf("pre-aggregation should add rule invocations: %d vs %d",
			with.Stats.Invocations, without.Stats.Invocations)
	}
}

func TestPreAggregationWithoutViewsStillCorrect(t *testing.T) {
	// Even with no views, the pre-aggregation alternative must be
	// semantically correct when chosen.
	opts := DefaultOptions()
	o := NewOptimizer(db(t).Catalog, opts)
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where:  expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		GroupBy: []expr.Expr{
			expr.Col(1, tpch.OCustkey),
		},
		Outputs: []spjg.OutputColumn{
			{Name: "o_custkey", Expr: expr.Col(1, tpch.OCustkey)},
			{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "qty", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
			{Name: "avg_qty", Agg: &spjg.Aggregate{Kind: spjg.AggAvg, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	runAndCompare(t, o, q)
}

func TestDropViewAndDuplicates(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem")},
		Outputs: []spjg.OutputColumn{{Name: "k", Expr: expr.Col(0, tpch.LOrderkey)}},
	}
	if _, err := o.RegisterView("v", vdef); err != nil {
		t.Fatal(err)
	}
	if _, err := o.RegisterView("v", vdef); err == nil {
		t.Fatal("duplicate view name accepted")
	}
	if o.ViewByName("v") == nil || o.NumViews() != 1 {
		t.Fatal("registration bookkeeping broken")
	}
	if !o.DropView("v") || o.DropView("v") {
		t.Fatal("drop semantics wrong")
	}
	if o.NumViews() != 0 {
		t.Fatal("view count after drop")
	}
}

func TestScalarAggregateOptimization(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem")},
		Where:  expr.NewCmp(expr.LE, expr.Col(0, tpch.LPartkey), expr.CInt(200)),
		Outputs: []spjg.OutputColumn{
			{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
			{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
		},
	}
	runAndCompare(t, o, q)
}

func TestDisconnectedJoinGraph(t *testing.T) {
	// No join predicate between the two tables: the optimizer must glue the
	// components with a cartesian product and still compute correct rows.
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	q := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "region"), tr(t, "nation")},
		Where:  expr.NewCmp(expr.LT, expr.Col(1, tpch.NNationkey), expr.CInt(3)),
		Outputs: []spjg.OutputColumn{
			{Name: "r_name", Expr: expr.Col(0, tpch.RName)},
			{Name: "n_name", Expr: expr.Col(1, tpch.NName)},
		},
	}
	res := runAndCompare(t, o, q)
	// 5 regions × 3 nations.
	if res.Rows <= 0 {
		t.Fatalf("rows estimate = %v", res.Rows)
	}
}

func TestDisconnectedAggregation(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	q := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "region"), tr(t, "nation")},
		GroupBy: []expr.Expr{expr.Col(0, tpch.RName)},
		Outputs: []spjg.OutputColumn{
			{Name: "r_name", Expr: expr.Col(0, tpch.RName)},
			{Name: "n", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
		},
	}
	runAndCompare(t, o, q)
}

func TestInvocationCountsPerShape(t *testing.T) {
	// The paper's Figure 3 instrumentation hinges on how often the rule
	// fires. Pin the counts for known query shapes so the statistics stay
	// comparable across refactors.
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	vdef := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "region")},
		Outputs: []spjg.OutputColumn{{Name: "r", Expr: expr.Col(0, tpch.RName)}},
	}
	if _, err := o.RegisterView("dummy", vdef); err != nil {
		t.Fatal(err)
	}

	// SPJ, 2 tables: two singleton groups + the top expression = 3.
	spj := joinQuery(t)
	res, err := o.Optimize(spj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Invocations != 3 {
		t.Errorf("2-table SPJ invocations = %d, want 3", res.Stats.Invocations)
	}

	// Aggregation, 2 tables: singletons (2) + full SPJ core (1) + top (1) +
	// pre-aggregation blocks (one per joinable top table whose agg args stay
	// on the other side = 1 here, since l_quantity lives on lineitem) = 5.
	agg := &spjg.Query{
		Tables:  []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders")},
		Where:   expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
		GroupBy: []expr.Expr{expr.Col(1, tpch.OCustkey)},
		Outputs: []spjg.OutputColumn{
			{Name: "k", Expr: expr.Col(1, tpch.OCustkey)},
			{Name: "q", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.LQuantity)}},
		},
	}
	res, err = o.Optimize(agg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Invocations != 5 {
		t.Errorf("2-table agg invocations = %d, want 5", res.Stats.Invocations)
	}

	// SPJ chain of 3 tables: 3 singletons + 2 connected pairs + top = 6.
	chain := &spjg.Query{
		Tables: []spjg.TableRef{tr(t, "lineitem"), tr(t, "orders"), tr(t, "customer")},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, tpch.LOrderkey), expr.Col(1, tpch.OOrderkey)),
			expr.Eq(expr.Col(1, tpch.OCustkey), expr.Col(2, tpch.CCustkey)),
		),
		Outputs: []spjg.OutputColumn{{Name: "n", Expr: expr.Col(2, tpch.CName)}},
	}
	res, err = o.Optimize(chain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Invocations != 6 {
		t.Errorf("3-table chain invocations = %d, want 6", res.Stats.Invocations)
	}
}
