package exec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// joinAggDB builds tables "l" and "r" of nl and nr rows. Both have id
// INTEGER NOT NULL (the row's ordinal) and nullable i INTEGER, d DATE, b
// BOOLEAN, f DOUBLE and s VARCHAR, drawn from a palette as wide as a quarter
// of the larger table, so a join on any pair stays small while every kind
// meets every other: ints, dates and whole DOUBLEs share values, VARCHARs are
// those values' digits, and the DOUBLEs include fractions, NaN and ±0. With
// dead > 0 every (dead%32+5)-th row but the last is deleted, leaving
// tombstones in the stores.
func joinAggDB(t testing.TB, nl, nr, dead int, rnd *rand.Rand) *storage.Database {
	t.Helper()
	c := catalog.New()
	for _, name := range []string{"l", "r"} {
		if err := c.Add(&catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true}, {Name: "i", Type: sqlvalue.KindInt},
			{Name: "d", Type: sqlvalue.KindDate}, {Name: "b", Type: sqlvalue.KindBool},
			{Name: "f", Type: sqlvalue.KindFloat}, {Name: "s", Type: sqlvalue.KindString},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	db := storage.NewDatabase(c)
	p := int64(8 + max(nl, nr)/4)
	pick := func(null int, v sqlvalue.Value) sqlvalue.Value {
		if rnd.IntN(8) < null {
			return sqlvalue.Null
		}
		return v
	}
	float := func() float64 {
		switch x := rnd.IntN(32); {
		case x == 0:
			return math.NaN()
		case x == 1:
			return math.Copysign(0, -1)
		case x%2 == 0:
			return float64(rnd.Int64N(p) - 3)
		default:
			return float64(rnd.Int64N(p)) + 0.5
		}
	}
	for name, n := range map[string]int{"l": nl, "r": nr} {
		tb := db.Table(name)
		var victims []int
		for r := 0; r < n; r++ {
			if err := tb.Insert(storage.Row{
				sqlvalue.NewInt(int64(r)),
				pick(1, sqlvalue.NewInt(rnd.Int64N(p)-3)),
				pick(1, sqlvalue.NewDate(rnd.Int64N(p))),
				pick(7, sqlvalue.NewBool(rnd.IntN(2) == 0)), // mostly NULL: a join on it stays small
				pick(1, sqlvalue.NewFloat(float())),
				pick(1, sqlvalue.NewString(fmt.Sprint(rnd.Int64N(p)-3))),
			}); err != nil {
				t.Fatal(err)
			}
			if k := dead%32 + 5; dead > 0 && r%k == k-1 && r < n-1 {
				victims = append(victims, r)
			}
		}
		if _, err := tb.DeleteOrds(victims); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// joinAggPlan reads from g a HashAgg over a HashJoin of l and r. Either side
// may be row-backed (a projection of its columns); the join has one or two
// key pairs of any kinds and maybe a residual, which cannot fail; the
// aggregate has up to two keys and up to three aggregates over bare columns,
// typed arithmetic and boxed expressions — some of which fail on some rows:
// UPPER over a non-string panics, arithmetic on a VARCHAR and a SUM of a
// DATE, BOOLEAN or VARCHAR are errors.
func joinAggPlan(g *predGen) Node {
	side := func(name string) Node {
		var n Node = &TableScan{Table: name, NCols: 6}
		if g.next(4) == 0 {
			cols := make([]expr.Expr, 6)
			for c := range cols {
				cols[c] = expr.Col(0, c)
			}
			n = &Project{In: n, Exprs: cols}
		}
		return n
	}
	j := &HashJoin{L: side("l"), R: side("r")}
	for range 1 + g.next(2) {
		j.LCols, j.RCols = append(j.LCols, g.next(6)), append(j.RCols, g.next(6))
	}
	col := func() expr.Expr { return expr.Col(0, g.next(12)) }
	if g.next(2) == 0 {
		var rhs expr.Expr = expr.C([]sqlvalue.Value{sqlvalue.NewInt(2), sqlvalue.NewFloat(0.5), sqlvalue.NewString("1"), sqlvalue.Null}[g.next(4)])
		if g.next(2) == 0 {
			rhs = col()
		}
		j.Residual = expr.NewCmp(expr.CmpOp(g.next(6)), col(), rhs)
	}
	arg := func() expr.Expr {
		switch g.next(4) {
		case 0:
			return expr.NewArith(expr.Mul, col(), expr.CInt(2))
		case 1:
			return expr.Func{Name: "UPPER", Args: []expr.Expr{col()}}
		}
		return col()
	}
	a := &HashAgg{In: j}
	for range g.next(3) {
		a.GroupBy = append(a.GroupBy, arg())
	}
	kinds := []spjg.AggKind{spjg.AggCountStar, spjg.AggSum, spjg.AggAvg}
	for range 1 + g.next(3) {
		spec := AggSpec{Num: SimpleAgg{Kind: kinds[g.next(3)], Arg: arg()}}
		if g.next(4) == 0 {
			spec.Den = &SimpleAgg{Kind: kinds[g.next(2)], Arg: arg()}
		}
		a.Aggs = append(a.Aggs, spec)
	}
	return a
}

// renderRows is rows byte for byte: each value's kind and payload, a
// DOUBLE's bits included.
func renderRows(rows []storage.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if v.Kind() == sqlvalue.KindFloat {
				fmt.Fprintf(&b, "%v:%x ", v.Kind(), math.Float64bits(v.Float()))
			} else {
				fmt.Fprintf(&b, "%v:%v ", v.Kind(), v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkAgainstReference requires the engine at workers {1,2,4} (up to
// maxWorkers) × batch sizes {1,7,1024} to return RunReference's rows byte for
// byte, or to fail with its error text or panic, and returns that failure.
func checkAgainstReference(t *testing.T, db storage.Reader, plan Node, maxWorkers int) string {
	t.Helper()
	var want []storage.Row
	wantFail := failure(func() (err error) { want, err = RunReference(db, plan); return err })
	for _, workers := range []int{1, 2, 4} {
		for _, bs := range []int{1, 7, 1024} {
			if workers > maxWorkers {
				continue
			}
			var got []storage.Row
			fail := failure(func() (err error) { got, err = (&Engine{Workers: workers, BatchSize: bs}).Run(db, plan); return err })
			if fail != wantFail || fail == "" && renderRows(got) != renderRows(want) {
				t.Fatalf("w=%d bs=%d: %d rows, failure %q; reference %d rows, failure %q\nplan:\n%s",
					workers, bs, len(got), fail, len(want), wantFail, Explain(plan))
			}
		}
	}
	return wantFail
}

// FuzzJoinAgg holds the batched join and aggregation to the reference, byte
// for byte — rows, error text and panic — over two stores of up to 2 100
// rows (crossing a block boundary) with NULLs, float specials and
// tombstones, joined on keys of every kind pairing, row-backed sides
// included, and aggregated on typed and boxed keys and arguments.
func FuzzJoinAgg(f *testing.F) {
	for _, seed := range []struct {
		nl, nr uint16
		dead   uint8
		prog   []byte
	}{
		{1615, 1294, 0, []byte{9, 2, 0, 5, 5, 1, 2, 7, 5, 11, 1, 4, 9, 8, 6, 0, 3, 0, 7, 2, 0, 4, 8, 8}},        // VARCHAR keys, typed sums
		{1728, 2012, 2, []byte{7, 8, 6, 0, 7, 11, 8, 1, 4, 10, 10, 4, 8, 0, 7, 5, 11, 6, 10, 9, 9, 10, 7, 3}},   // a row-backed probe, a panic
		{1542, 720, 7, []byte{11, 11, 0, 11, 11, 5, 0, 10, 2, 2, 9, 8, 6, 4, 1, 7, 2, 10, 2, 1, 9, 1, 4, 3}},    // SUM of a BOOLEAN
		{1800, 1171, 0, []byte{4, 6, 2, 6, 10, 4, 0, 3, 4, 10, 7, 8, 11, 2, 11, 7, 7, 2, 2, 6, 3, 11, 5, 1}},    // BIGINT ⋈ DOUBLE, a residual, an error
		{840, 1595, 5, []byte{10, 4, 2, 10, 10, 10, 6, 10, 7, 11, 6, 11, 5, 1, 5, 1, 5, 10, 3, 4, 11, 7, 6, 0}}, // DOUBLE keys, a residual, a panic
		{1707, 1957, 2, []byte{11, 9, 6, 8, 1, 2, 9, 9, 10, 8, 11, 9, 10, 5, 2, 3, 11, 1, 10, 2, 7, 9, 9, 11}},  // DATE ⋈ BIGINT
		{500, 500, 0, []byte{1, 1, 0, 1, 5, 1, 1, 3, 1, 0, 1, 2, 10, 1}},                                        // BIGINT ⋈ VARCHAR: no match
		{1500, 1300, 3, []byte{1, 1, 1, 1, 1, 2, 2, 1, 1, 3, 4, 1, 1, 2, 10, 1, 2, 0, 7, 0, 0, 3, 1}},           // two key pairs
	} {
		f.Add(seed.nl, seed.nr, seed.dead, seed.prog)
	}
	f.Fuzz(func(t *testing.T, nl, nr uint16, dead uint8, prog []byte) {
		db := joinAggDB(t, 1+int(nl)%2100, 1+int(nr)%2100, int(dead), rand.New(rand.NewPCG(uint64(nl), uint64(nr)<<8|uint64(dead))))
		checkAgainstReference(t, db, joinAggPlan(&predGen{b: prog}), 2)
	})
}

// TestAggBatchFailureOrder: boxed keys and arguments that fail — each with its
// own error or panic — on different rows, in different aggregates, in a
// Num and a Den, within one batch and across a batch boundary, fail the
// engine where they fail the reference: the first failing row, and in it the
// keys, then each aggregate's Num, then its Den. Typed keys and arguments
// beside them, folded a column at a time, cannot move that failure.
func TestAggBatchFailureOrder(t *testing.T) {
	// Columns of table "f": id and g INTEGER and x DOUBLE are never NULL; the
	// others are NULL except where a case sets them, each failing one site.
	const (
		colKeyErr   = 3 // VARCHAR: key ks + 1, "arithmetic on non-numeric value"
		colKeyPanic = 4 // INTEGER: key UPPER(kp), "BIGINT used as VARCHAR"
		colNumErr   = 5 // VARCHAR: agg 1 Num SUM(ABS(ae)), "ABS on VARCHAR"
		colSumErr   = 6 // VARCHAR: agg 2 Num SUM(as), "cannot sum VARCHAR values"
		colNumPanic = 7 // DOUBLE: agg 3 Num AVG(UPPER(ap)), "DOUBLE used as VARCHAR"
		colDenPanic = 8 // DATE: agg 0 Den SUM(UPPER(dp)), "DATE used as VARCHAR"
		colDenErr   = 9 // DATE: agg 2 Den SUM(dd), "cannot sum DATE values"
	)
	kinds := []sqlvalue.Kind{sqlvalue.KindInt, sqlvalue.KindInt, sqlvalue.KindFloat, sqlvalue.KindString,
		sqlvalue.KindInt, sqlvalue.KindString, sqlvalue.KindString, sqlvalue.KindFloat, sqlvalue.KindDate, sqlvalue.KindDate}
	value := map[sqlvalue.Kind]sqlvalue.Value{sqlvalue.KindString: sqlvalue.NewString("x"),
		sqlvalue.KindInt: sqlvalue.NewInt(1), sqlvalue.KindFloat: sqlvalue.NewFloat(1), sqlvalue.KindDate: sqlvalue.NewDate(1)}
	const rows = 1200
	type cell struct{ row, col int }
	build := func(cells []cell) *storage.Database {
		c := catalog.New()
		tab := &catalog.Table{Name: "f"}
		for i, k := range kinds {
			tab.Columns = append(tab.Columns, catalog.Column{Name: fmt.Sprint("c", i), Type: k, NotNull: i < 3})
		}
		if err := c.Add(tab); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(&catalog.Table{Name: "dim", Columns: []catalog.Column{{Name: "id", Type: sqlvalue.KindInt, NotNull: true}}}); err != nil {
			t.Fatal(err)
		}
		db := storage.NewDatabase(c)
		for r := 0; r < 7; r++ {
			if err := db.Table("dim").Insert(storage.Row{sqlvalue.NewInt(int64(r))}); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < rows; r++ {
			row := make(storage.Row, len(kinds))
			row[0], row[1], row[2] = sqlvalue.NewInt(int64(r)), sqlvalue.NewInt(int64(r%7)), sqlvalue.NewFloat(float64(r)/4)
			for i := 3; i < len(row); i++ {
				row[i] = sqlvalue.Null
			}
			for _, c := range cells {
				if c.row == r {
					row[c.col] = value[kinds[c.col]]
				}
			}
			if err := db.Table("f").Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	upper := func(c int) expr.Expr { return expr.Func{Name: "UPPER", Args: []expr.Expr{expr.Col(0, c)}} }
	aggs := func(off int) []AggSpec {
		col := func(c int) expr.Expr { return expr.Col(0, off+c) }
		up := func(c int) expr.Expr { return upper(off + c) }
		return []AggSpec{
			{Num: SimpleAgg{Kind: spjg.AggSum, Arg: col(2)}, Den: &SimpleAgg{Kind: spjg.AggSum, Arg: up(colDenPanic)}},
			{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Func{Name: "ABS", Args: []expr.Expr{col(colNumErr)}}}},
			{Num: SimpleAgg{Kind: spjg.AggSum, Arg: col(colSumErr)}, Den: &SimpleAgg{Kind: spjg.AggSum, Arg: col(colDenErr)}},
			{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: up(colNumPanic)}},
			{Num: SimpleAgg{Kind: spjg.AggCountStar}},
		}
	}
	plans := func() map[string]Node {
		scan := &TableScan{Table: "f", NCols: len(kinds)}
		join := &HashJoin{L: &TableScan{Table: "dim", NCols: 1}, R: scan, LCols: []int{0}, RCols: []int{1}}
		boxedKeys := func(off int) []expr.Expr {
			return []expr.Expr{expr.Col(0, off+1), expr.NewArith(expr.Add, expr.Col(0, off+colKeyErr), expr.CInt(1)), upper(off + colKeyPanic)}
		}
		return map[string]Node{
			"typed-key":       &HashAgg{In: scan, GroupBy: []expr.Expr{expr.Col(0, 1)}, Aggs: aggs(0)},
			"boxed-keys":      &HashAgg{In: scan, GroupBy: boxedKeys(0), Aggs: aggs(0)},
			"scalar":          &HashAgg{In: scan, Aggs: aggs(0)},
			"boxed-over-join": &HashAgg{In: join, GroupBy: boxedKeys(1), Aggs: aggs(1)},
		}
	}
	// Each case sets failing cells and names the failure a plan with boxed
	// keys reports.
	for _, tc := range []struct {
		name  string
		cells []cell
		want  string
	}{
		{"earlier row wins over an earlier site", []cell{{5, colKeyErr}, {3, colNumErr}}, "ABS on VARCHAR"},
		{"keys before arguments", []cell{{4, colKeyPanic}, {4, colNumErr}}, "BIGINT used as VARCHAR"},
		{"an earlier aggregate's Den before a later Num", []cell{{6, colNumErr}, {6, colDenPanic}}, "DATE used as VARCHAR"},
		{"Num before its Den", []cell{{9, colDenErr}, {9, colSumErr}}, "cannot sum VARCHAR values"},
		{"a panic before a later error", []cell{{10, colNumPanic}, {700, colKeyErr}}, "DOUBLE used as VARCHAR"},
		{"across the batch boundary: error first", []cell{{1023, colSumErr}, {1024, colKeyPanic}}, "cannot sum VARCHAR values"},
		{"across the batch boundary: panic first", []cell{{1023, colDenPanic}, {1030, colKeyErr}}, "DATE used as VARCHAR"},
		{"a later batch alone", []cell{{1100, colDenErr}, {1150, colNumPanic}}, "cannot sum DATE values"},
	} {
		db := build(tc.cells)
		for name, plan := range plans() {
			fail := checkAgainstReference(t, db, plan, 4)
			if fail == "" {
				t.Fatalf("%s, %s: no failure", tc.name, name)
			}
			if name == "boxed-keys" && !strings.Contains(fail, tc.want) {
				t.Fatalf("%s, %s: failure %q, want %q", tc.name, name, fail, tc.want)
			}
		}
	}
}
