package exec

import (
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// materialize stores the rows of a view definition under name — what a
// maintainer's Build and Install do for a maintained view.
func materialize(db *storage.Database, name string, def *spjg.Query) (*storage.MaterializedView, error) {
	rows, err := RunQuery(db, def)
	if err != nil {
		return nil, err
	}
	return db.PutView(name, storage.StoreOf(len(def.Outputs), rows))
}

// smallDB builds a two-table database:
//
//	dept(id PK, name)        : 2 rows
//	emp(id PK, dept_id FK, salary, note) : 5 rows
func smallDB(t *testing.T) *storage.Database {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{
		Name: "dept",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "name", Type: sqlvalue.KindString, NotNull: true},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(&catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "dept_id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "salary", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "note", Type: sqlvalue.KindString},
		},
		PrimaryKey: []int{0},
		Foreign: []catalog.ForeignKey{
			{Name: "fk", Columns: []int{1}, RefTable: "dept", RefColumns: []int{0}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	for _, r := range []storage.Row{
		{sqlvalue.NewInt(1), sqlvalue.NewString("eng")},
		{sqlvalue.NewInt(2), sqlvalue.NewString("ops")},
	} {
		if err := db.Table("dept").Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	note := func(s string) sqlvalue.Value {
		if s == "" {
			return sqlvalue.Null
		}
		return sqlvalue.NewString(s)
	}
	for _, r := range [][4]any{
		{1, 1, 100, "alpha"},
		{2, 1, 200, "beta"},
		{3, 1, 300, ""},
		{4, 2, 400, "gamma"},
		{5, 2, 500, "alpha beta"},
	} {
		row := storage.Row{
			sqlvalue.NewInt(int64(r[0].(int))),
			sqlvalue.NewInt(int64(r[1].(int))),
			sqlvalue.NewInt(int64(r[2].(int))),
			note(r[3].(string)),
		}
		if err := db.Table("emp").Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	db.RefreshStats()
	return db
}

func TestTableScanWithFilter(t *testing.T) {
	db := smallDB(t)
	scan := &TableScan{Table: "emp", NCols: 4,
		Filter: expr.NewCmp(expr.GT, expr.Col(0, 2), expr.CInt(250))}
	rows, err := scan.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if _, err := (&TableScan{Table: "ghost"}).Run(db); err == nil {
		t.Fatal("scan of unknown table succeeded")
	}
}

func TestHashJoin(t *testing.T) {
	db := smallDB(t)
	j := &HashJoin{
		L:     &TableScan{Table: "emp", NCols: 4},
		R:     &TableScan{Table: "dept", NCols: 2},
		LCols: []int{1},
		RCols: []int{0},
	}
	rows, err := j.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("join rows = %d, want 5", len(rows))
	}
	if len(rows[0]) != 6 || j.Width() != 6 {
		t.Fatalf("join width = %d", len(rows[0]))
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	db := smallDB(t)
	// Join emp.note = emp.note (self join on a nullable column): the row
	// with NULL note must not join with itself.
	j := &HashJoin{
		L:     &TableScan{Table: "emp", NCols: 4},
		R:     &TableScan{Table: "emp", NCols: 4},
		LCols: []int{3},
		RCols: []int{3},
	}
	rows, err := j.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	// Non-null notes: alpha, beta, gamma, "alpha beta" — all distinct → 4
	// self-pairs; NULL row contributes none.
	if len(rows) != 4 {
		t.Fatalf("join rows = %d, want 4", len(rows))
	}
}

func TestNestedLoopJoin(t *testing.T) {
	db := smallDB(t)
	j := &NestedLoopJoin{
		L:    &TableScan{Table: "emp", NCols: 4},
		R:    &TableScan{Table: "dept", NCols: 2},
		Pred: expr.NewCmp(expr.GT, expr.Col(0, 2), expr.CInt(450)),
	}
	rows, err := j.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	// One emp row (salary 500) × 2 dept rows.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
}

func TestHashAggGrouped(t *testing.T) {
	db := smallDB(t)
	agg := &HashAgg{
		In:      &TableScan{Table: "emp", NCols: 4},
		GroupBy: []expr.Expr{expr.Col(0, 1)},
		Aggs: []AggSpec{
			{Num: SimpleAgg{Kind: spjg.AggCountStar}},
			{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 2)}},
			{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: expr.Col(0, 2)}},
		},
	}
	rows, err := agg.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	byDept := map[int64]storage.Row{}
	for _, r := range rows {
		byDept[r[0].Int()] = r
	}
	d1 := byDept[1]
	if d1[1].Int() != 3 || d1[2].Int() != 600 {
		t.Fatalf("dept 1 = %v", d1)
	}
	if av, _ := d1[3].AsFloat(); av != 200 {
		t.Fatalf("dept 1 avg = %v", d1[3])
	}
	d2 := byDept[2]
	if d2[1].Int() != 2 || d2[2].Int() != 900 {
		t.Fatalf("dept 2 = %v", d2)
	}
}

func TestHashAggScalarOnEmptyInput(t *testing.T) {
	db := smallDB(t)
	agg := &HashAgg{
		In: &TableScan{Table: "emp", NCols: 4,
			Filter: expr.NewCmp(expr.GT, expr.Col(0, 2), expr.CInt(9999))},
		Aggs: []AggSpec{
			{Num: SimpleAgg{Kind: spjg.AggCountStar}},
			{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 2)}},
		},
	}
	rows, err := agg.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("scalar agg over empty input: %d rows, want 1", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("row = %v, want (0, NULL)", rows[0])
	}
	// Grouped aggregation over empty input: zero rows.
	agg.GroupBy = []expr.Expr{expr.Col(0, 1)}
	rows, err = agg.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("grouped agg over empty input: %d rows, want 0", len(rows))
	}
}

func TestHashAggSumIgnoresNulls(t *testing.T) {
	db := smallDB(t)
	// SUM over note-is-null ? NULL : salary — exercised via CASE-less trick:
	// sum a column that is NULL in one row: build a projection first.
	proj := &Project{
		In:    &TableScan{Table: "emp", NCols: 4},
		Exprs: []expr.Expr{expr.Col(0, 3)}, // note (1 NULL)
	}
	agg := &HashAgg{In: proj, Aggs: []AggSpec{
		{Num: SimpleAgg{Kind: spjg.AggCountStar}},
	}}
	rows, err := agg.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 5 {
		t.Fatalf("COUNT(*) = %v, want 5 (NULLs still count rows)", rows[0][0])
	}
}

func TestAggSpecWithDen(t *testing.T) {
	db := smallDB(t)
	// ratio = SUM(salary) / COUNT(*) per dept — the AVG-from-sums shape.
	agg := &HashAgg{
		In:      &TableScan{Table: "emp", NCols: 4},
		GroupBy: []expr.Expr{expr.Col(0, 1)},
		Aggs: []AggSpec{{
			Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 2)},
			Den: &SimpleAgg{Kind: spjg.AggCountStar},
		}},
	}
	rows, err := agg.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	byDept := map[int64]float64{}
	for _, r := range rows {
		f, _ := r[1].AsFloat()
		byDept[r[0].Int()] = f
	}
	if byDept[1] != 200 || byDept[2] != 450 {
		t.Fatalf("ratios = %v", byDept)
	}
}

func TestProjectAndFilter(t *testing.T) {
	db := smallDB(t)
	p := &Project{
		In: &Filter{
			In:   &TableScan{Table: "emp", NCols: 4},
			Pred: expr.Like{E: expr.Col(0, 3), Pattern: expr.CStr("%alpha%")},
		},
		Exprs: []expr.Expr{
			expr.Col(0, 0),
			expr.NewArith(expr.Mul, expr.Col(0, 2), expr.CInt(2)),
		},
	}
	rows, err := p.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Matching rows are emp 1 (salary 100) and emp 5 (salary 500); the
	// projected second column doubles the salary.
	want := map[int64]int64{1: 200, 5: 1000}
	for _, r := range rows {
		if want[r[0].Int()] != r[1].Int() {
			t.Fatalf("row = %v", r)
		}
	}
}

func TestRunQueryReference(t *testing.T) {
	db := smallDB(t)
	// SELECT d.name, SUM(e.salary) FROM emp e, dept d
	// WHERE e.dept_id = d.id AND e.salary >= 200 GROUP BY d.name
	q := &spjg.Query{
		Tables: []spjg.TableRef{
			{Table: db.Catalog.Table("emp")},
			{Table: db.Catalog.Table("dept")},
		},
		Where: expr.NewAnd(
			expr.Eq(expr.Col(0, 1), expr.Col(1, 0)),
			expr.NewCmp(expr.GE, expr.Col(0, 2), expr.CInt(200)),
		),
		GroupBy: []expr.Expr{expr.Col(1, 1)},
		Outputs: []spjg.OutputColumn{
			{Name: "name", Expr: expr.Col(1, 1)},
			{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, 2)}},
		},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	rows, err := RunQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r[0].Str()] = r[1].Int()
	}
	if got["eng"] != 500 || got["ops"] != 900 {
		t.Fatalf("result = %v", got)
	}
}

func TestRunQueryLeftoverConjunct(t *testing.T) {
	db := smallDB(t)
	// Non-equi cross-table predicate forces a leftover filter.
	q := &spjg.Query{
		Tables: []spjg.TableRef{
			{Table: db.Catalog.Table("emp")},
			{Table: db.Catalog.Table("dept")},
		},
		Where: expr.NewCmp(expr.GT, expr.Col(0, 2),
			expr.NewArith(expr.Mul, expr.Col(1, 0), expr.CInt(150))),
		Outputs: []spjg.OutputColumn{
			{Name: "e", Expr: expr.Col(0, 0)},
			{Name: "d", Expr: expr.Col(1, 0)},
		},
	}
	rows, err := RunQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// salary > dept.id*150: dept 1 → salary > 150 (4 rows); dept 2 →
	// salary > 300 (2 rows).
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
}

func TestMaterializeAndViewScan(t *testing.T) {
	db := smallDB(t)
	def := &spjg.Query{
		Tables: []spjg.TableRef{{Table: db.Catalog.Table("emp")}},
		Where:  expr.NewCmp(expr.GE, expr.Col(0, 2), expr.CInt(200)),
		Outputs: []spjg.OutputColumn{
			{Name: "id", Expr: expr.Col(0, 0)},
			{Name: "salary", Expr: expr.Col(0, 2)},
		},
	}
	mv, err := materialize(db, "highpaid", def)
	if err != nil {
		t.Fatal(err)
	}
	if mv.RowCount() != 4 {
		t.Fatalf("materialized %d rows, want 4", mv.RowCount())
	}
	scan := &ViewScan{View: "highpaid", NCols: 2,
		Filter: expr.NewCmp(expr.GE, expr.Col(0, 1), expr.CInt(400))}
	rows, err := scan.Run(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("filtered view rows = %d", len(rows))
	}
	if _, err := (&ViewScan{View: "ghost"}).Run(db); err == nil {
		t.Fatal("scan of missing view succeeded")
	}
}

func TestExplain(t *testing.T) {
	plan := &Project{
		In: &HashJoin{
			L: &TableScan{Table: "emp", NCols: 4},
			R: &TableScan{Table: "dept", NCols: 2},
		},
		Exprs: []expr.Expr{expr.Col(0, 0)},
	}
	s := Explain(plan)
	for _, frag := range []string{"Project", "HashJoin", "TableScan(emp)", "TableScan(dept)"} {
		if !contains(s, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestSameRows(t *testing.T) {
	a := []storage.Row{
		{sqlvalue.NewInt(2), sqlvalue.NewFloat(1e7 + 0.001)},
		{sqlvalue.NewInt(1), sqlvalue.NewString("x")},
	}
	b := []storage.Row{
		{sqlvalue.NewInt(1), sqlvalue.NewString("x")},
		{sqlvalue.NewInt(2), sqlvalue.NewFloat(1e7)},
	}
	if !SameRows(a, b) {
		t.Fatal("rows equal within tolerance reported different")
	}
	c := []storage.Row{
		{sqlvalue.NewInt(1), sqlvalue.NewString("x")},
		{sqlvalue.NewInt(2), sqlvalue.NewFloat(1e7 + 100)},
	}
	if SameRows(a, c) {
		t.Fatal("clearly different floats reported equal")
	}
	if SameRows(a, a[:1]) {
		t.Fatal("different cardinalities reported equal")
	}
	// NULL vs value must differ; NULL vs NULL must match.
	d := []storage.Row{{sqlvalue.Null}}
	e := []storage.Row{{sqlvalue.NewFloat(0)}}
	if SameRows(d, e) {
		t.Fatal("NULL equated with 0")
	}
	if !SameRows(d, d) {
		t.Fatal("NULL row not equal to itself")
	}
	// Int vs integral float compare equal (rolled-up sums may change type).
	f := []storage.Row{{sqlvalue.NewInt(5)}}
	g := []storage.Row{{sqlvalue.NewFloat(5)}}
	if !SameRows(f, g) {
		t.Fatal("5 and 5.0 reported different")
	}
	// Equal bags whose floats round alike at 6 digits, listed in opposite
	// orders.
	h := []storage.Row{{sqlvalue.NewFloat(1.0000001)}, {sqlvalue.NewFloat(1.0000002)}}
	if !SameRows(h, []storage.Row{h[1], h[0]}) {
		t.Fatal("one bag in two orders reported different")
	}
	// Two values within tolerance on either side of a 6-digit rounding
	// boundary: rounded, they order differently against the other row.
	k := []storage.Row{
		{sqlvalue.NewFloat(1.00000499999999), sqlvalue.NewString("b")},
		{sqlvalue.NewFloat(1.000001), sqlvalue.NewString("a")},
	}
	l := []storage.Row{
		{sqlvalue.NewFloat(1.000001), sqlvalue.NewString("a")},
		{sqlvalue.NewFloat(1.00000500000001), sqlvalue.NewString("b")},
	}
	if !SameRows(k, l) {
		t.Fatal("floats within tolerance across a rounding boundary reported different")
	}
}
