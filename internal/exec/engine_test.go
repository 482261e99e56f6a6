package exec

import (
	"errors"
	"strings"
	"testing"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// enginePlans is a set of plan shapes covering every operator, built over
// smallDB: scans (filtered and not), hash join with residual, nested loop,
// projection, grouped and scalar aggregation with Den rollups — and the
// compositions that put a materialised subtree, a nested loop or a computed
// expression at each position of a pipeline, including expressions that
// yield NULL (division by zero) or fail (arithmetic on a string) above a join.
func enginePlans() map[string]Node {
	empSalary := expr.Col(0, 2)
	empDept := expr.Col(0, 1)
	dept := func() Node { return &TableScan{Table: "dept", NCols: 2} }
	emp := func() Node { return &TableScan{Table: "emp", NCols: 4} }
	// dept ⋈ emp: id name | id dept_id salary note.
	join := func() Node { return &HashJoin{L: dept(), R: emp(), LCols: []int{0}, RCols: []int{1}} }
	loop := func() Node {
		return &NestedLoopJoin{L: dept(), R: emp(), Pred: expr.NewCmp(expr.LT, expr.Col(0, 0), expr.Col(0, 2))}
	}
	perDeptMinusOne := expr.NewArith(expr.Div, expr.Col(0, 4), expr.NewArith(expr.Sub, expr.Col(0, 3), expr.CInt(1)))
	namePlusOne := expr.NewArith(expr.Add, expr.Col(0, 1), expr.CInt(1))
	return map[string]Node{
		"hash-join-over-loop": &HashJoin{L: loop(), R: dept(), LCols: []int{3}, RCols: []int{0}},
		"loop-over-hash-join": &NestedLoopJoin{L: join(), R: dept(),
			Pred: expr.NewCmp(expr.GE, expr.Col(0, 4), expr.NewArith(expr.Mul, expr.Col(0, 6), expr.CInt(200)))},
		"agg-over-loop": &HashAgg{In: loop(), GroupBy: []expr.Expr{expr.Col(0, 1)},
			Aggs: []AggSpec{{Num: SimpleAgg{Kind: spjg.AggCountStar}}, {Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 4)}}}},
		"filter-over-computed-project": &Filter{
			In:   &Project{In: emp(), Exprs: []expr.Expr{expr.Col(0, 0), expr.NewArith(expr.Mul, empSalary, expr.CInt(2))}},
			Pred: expr.NewCmp(expr.GT, expr.Col(0, 1), expr.CInt(400))},
		"project-unbound-column-over-join": &Project{In: join(),
			Exprs: []expr.Expr{expr.Col(0, 5), expr.Col(0, 99), expr.Col(0, -1), expr.Col(1, 0), expr.Col(0, 1)}},
		"agg-on-build-side": &HashJoin{
			L: &HashAgg{In: emp(), GroupBy: []expr.Expr{empDept},
				Aggs: []AggSpec{{Num: SimpleAgg{Kind: spjg.AggSum, Arg: empSalary}}}},
			R: dept(), LCols: []int{0}, RCols: []int{0}},
		"computed-project-on-probe-side": &HashJoin{L: dept(),
			R:     &Project{In: emp(), Exprs: []expr.Expr{empDept, expr.NewArith(expr.Add, empSalary, expr.CInt(1))}},
			LCols: []int{0}, RCols: []int{0}},
		"zero-key-hash-join":                  &HashJoin{L: dept(), R: emp()},
		"divide-by-zero-in-project-over-join": &Project{In: join(), Exprs: []expr.Expr{expr.Col(0, 2), perDeptMinusOne}},
		"divide-by-zero-in-filter-over-join": &Filter{In: join(),
			Pred: expr.NewCmp(expr.GT, perDeptMinusOne, expr.CInt(0))},
		"error-in-project-over-join": &Project{In: join(), Exprs: []expr.Expr{expr.Col(0, 2), namePlusOne}},
		"error-in-filter-over-join":  &Filter{In: join(), Pred: expr.NewCmp(expr.GT, namePlusOne, expr.CInt(0))},

		"scan": &TableScan{Table: "emp", NCols: 4},
		"filter-scan": &TableScan{Table: "emp", NCols: 4,
			Filter: expr.NewCmp(expr.GE, empSalary, expr.CInt(100))},
		"project": &Project{
			In:    &TableScan{Table: "emp", NCols: 4},
			Exprs: []expr.Expr{expr.Col(0, 0), expr.NewArith(expr.Mul, empSalary, expr.CInt(2))},
		},
		"filter-op": &Filter{
			In:   &TableScan{Table: "emp", NCols: 4},
			Pred: expr.NewCmp(expr.NE, empDept, expr.CInt(2)),
		},
		"hash-join": &HashJoin{
			L:     &TableScan{Table: "dept", NCols: 2},
			R:     &TableScan{Table: "emp", NCols: 4},
			LCols: []int{0},
			RCols: []int{1},
		},
		"hash-join-residual": &HashJoin{
			L:        &TableScan{Table: "dept", NCols: 2},
			R:        &TableScan{Table: "emp", NCols: 4},
			LCols:    []int{0},
			RCols:    []int{1},
			Residual: expr.NewCmp(expr.GT, expr.Col(0, 4), expr.CInt(90)),
		},
		"nested-loop": &NestedLoopJoin{
			L:    &TableScan{Table: "dept", NCols: 2},
			R:    &TableScan{Table: "emp", NCols: 4},
			Pred: expr.NewCmp(expr.LT, expr.Col(0, 0), expr.Col(0, 3)),
		},
		"cross-join": &NestedLoopJoin{
			L: &TableScan{Table: "dept", NCols: 2},
			R: &TableScan{Table: "emp", NCols: 4},
		},
		"grouped-agg": &HashAgg{
			In:      &TableScan{Table: "emp", NCols: 4},
			GroupBy: []expr.Expr{empDept},
			Aggs: []AggSpec{
				{Num: SimpleAgg{Kind: spjg.AggCountStar}},
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: empSalary}},
				{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: empSalary}},
			},
		},
		"agg-with-den": &HashAgg{
			In:      &TableScan{Table: "emp", NCols: 4},
			GroupBy: []expr.Expr{empDept},
			Aggs: []AggSpec{{
				Num: SimpleAgg{Kind: spjg.AggSum, Arg: empSalary},
				Den: &SimpleAgg{Kind: spjg.AggCountStar},
			}},
		},
		"scalar-agg": &HashAgg{
			In: &TableScan{Table: "emp", NCols: 4},
			Aggs: []AggSpec{
				{Num: SimpleAgg{Kind: spjg.AggCountStar}},
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: empSalary}},
			},
		},
		"scalar-agg-empty": &HashAgg{
			In: &TableScan{Table: "emp", NCols: 4,
				Filter: expr.NewCmp(expr.LT, empSalary, expr.CInt(-1))},
			Aggs: []AggSpec{
				{Num: SimpleAgg{Kind: spjg.AggCountStar}},
				{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: empSalary}},
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: empSalary},
					Den: &SimpleAgg{Kind: spjg.AggCountStar}},
			},
		},
		"join-over-agg": &HashJoin{
			L: &TableScan{Table: "dept", NCols: 2},
			R: &HashAgg{
				In:      &TableScan{Table: "emp", NCols: 4},
				GroupBy: []expr.Expr{empDept},
				Aggs:    []AggSpec{{Num: SimpleAgg{Kind: spjg.AggCountStar}}},
			},
			LCols: []int{0},
			RCols: []int{0},
		},
	}
}

func rowsExactlyEqual(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !sqlvalue.Identical(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestEngineMatchesReferenceExactly: for every plan shape, worker count, and
// batch size — including BatchSize 1, which maximizes morsel interleaving —
// the engine must reproduce the reference evaluator's rows in the same
// order, not just the same bag, or fail with the reference's error.
func TestEngineMatchesReferenceExactly(t *testing.T) {
	db := smallDB(t)
	for name, plan := range enginePlans() {
		want, refErr := RunReference(db, plan)
		if (refErr != nil) != strings.HasPrefix(name, "error-") {
			t.Fatalf("%s: reference: %v", name, refErr)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, bs := range []int{1, 2, 3, 1024} {
				e := &Engine{Workers: workers, BatchSize: bs}
				got, err := e.Run(db, plan)
				if refErr != nil {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("%s w=%d bs=%d: error %v, reference %v", name, workers, bs, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s w=%d bs=%d: %v", name, workers, bs, err)
				}
				if !rowsExactlyEqual(got, want) {
					t.Fatalf("%s w=%d bs=%d: engine output differs\ngot:  %v\nwant: %v",
						name, workers, bs, got, want)
				}
			}
		}
	}
}

// TestEngineSnapshotsScanOutput is the aliasing regression test: Node.Run on
// an unfiltered TableScan/ViewScan must return rows that stay valid when
// concurrent-DML-style mutations hit the table or view afterwards — not the
// storage-owned live slice the seed executor returned.
func TestEngineSnapshotsScanOutput(t *testing.T) {
	db := smallDB(t)

	scan := &TableScan{Table: "emp", NCols: 4}
	rows, err := scan.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	before := append([]storage.Row(nil), rows...)
	// Mutate the table the way the maintainer does: delete then insert.
	if _, err := db.Table("emp").DeleteWhere(func(r storage.Row) bool {
		return r[0].Int() == 1
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Table("emp").Insert(storage.Row{
		sqlvalue.NewInt(99), sqlvalue.NewInt(1), sqlvalue.NewInt(1), sqlvalue.Null,
	}); err != nil {
		t.Fatal(err)
	}
	if !rowsExactlyEqual(rows, before) {
		t.Fatal("TableScan result changed under DML: live slice leaked")
	}

	v, err := db.PutView("mv", storage.StoreOf(1, []storage.Row{{sqlvalue.NewInt(1)}, {sqlvalue.NewInt(2)}}))
	if err != nil {
		t.Fatal(err)
	}
	vrows, err := (&ViewScan{View: "mv", NCols: 1}).Run(db)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the view's storage the way incremental maintenance does: write
	// a cell in place.
	v.SetInt(0, 0, 42)
	if len(vrows) != 2 || vrows[0][0].Int() != 1 || vrows[1][0].Int() != 2 {
		t.Fatal("ViewScan result changed under view maintenance: live slice leaked")
	}
}

// TestEngineErrorPropagation: a predicate that evaluates to a non-boolean
// errors identically through both evaluators, serial and parallel.
func TestEngineErrorPropagation(t *testing.T) {
	db := smallDB(t)
	plan := &Filter{In: &TableScan{Table: "emp", NCols: 4}, Pred: expr.CInt(1)}
	_, refErr := RunReference(db, plan)
	if refErr == nil {
		t.Fatal("reference should error")
	}
	for _, workers := range []int{1, 4} {
		e := &Engine{Workers: workers, BatchSize: 1}
		_, err := e.Run(db, plan)
		if err == nil {
			t.Fatalf("w=%d: expected error", workers)
		}
		if err.Error() != refErr.Error() {
			t.Fatalf("w=%d: error %q, reference %q", workers, err, refErr)
		}
	}
}

// TestEnginePanicPropagation: a panic inside a worker (here UPPER over an
// integer column, which violates Value.Str's contract) must surface as a
// panic on the calling goroutine, so the server's recovery middleware keeps
// working with the parallel engine.
func TestEnginePanicPropagation(t *testing.T) {
	db := smallDB(t)
	plan := &Project{
		In:    &TableScan{Table: "emp", NCols: 4},
		Exprs: []expr.Expr{expr.Func{Name: "UPPER", Args: []expr.Expr{expr.Col(0, 2)}}},
	}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("w=%d: expected panic", workers)
				}
				if s, ok := p.(string); !ok || !strings.Contains(s, "used as") {
					t.Fatalf("w=%d: unexpected panic value %v", workers, p)
				}
			}()
			e := &Engine{Workers: workers, BatchSize: 1}
			_, _ = e.Run(db, plan)
		}()
	}
}

// TestEngineUnknownNode: both evaluators reject plan nodes they don't know.
func TestEngineUnknownNode(t *testing.T) {
	db := smallDB(t)
	var n unknownNode
	if _, err := DefaultEngine.Run(db, n); err == nil {
		t.Fatal("engine: expected error")
	}
	if _, err := RunReference(db, n); err == nil {
		t.Fatal("reference: expected error")
	}
}

type unknownNode struct{}

func (unknownNode) Run(storage.Reader) ([]storage.Row, error) { return nil, nil }
func (unknownNode) Width() int                                { return 0 }
func (unknownNode) Describe() string                          { return "unknown" }
func (unknownNode) Children() []Node                          { return nil }

// TestRelationTooLarge: a relation a row id cannot address is a typed error
// wherever it would enter a pipeline.
func TestRelationTooLarge(t *testing.T) {
	most := maxRid
	if err := checkRid(most); err != nil {
		t.Fatalf("checkRid(%d) = %v", most, err)
	}
	err := checkRid(most + 1)
	if !errors.Is(err, ErrRelationTooLarge) {
		t.Fatalf("checkRid(%d) = %v, want ErrRelationTooLarge", most+1, err)
	}
}
