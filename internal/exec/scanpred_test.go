package exec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// predDB builds table "p" of n rows: id INTEGER NOT NULL holds the row's
// ordinal, and i INTEGER, d DATE, f DOUBLE and s VARCHAR are nullable, drawn
// from small palettes (the DOUBLEs include NaN, ±0 and ±Inf) so comparisons
// hit ties, NULLs and empty strings. With dead > 0 every (dead%32+5)-th row
// but the last is deleted: few enough that the store keeps its tombstones,
// which cut live runs at and across block boundaries.
func predDB(t testing.TB, n, dead int, rnd *rand.Rand) *storage.Database {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{
		Name: "p",
		Columns: []catalog.Column{
			{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "i", Type: sqlvalue.KindInt},
			{Name: "d", Type: sqlvalue.KindDate},
			{Name: "f", Type: sqlvalue.KindFloat},
			{Name: "s", Type: sqlvalue.KindString},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2, 3}
	strs := []string{"", "a", "ab", "b", "a%"}
	pick := func(v sqlvalue.Value) sqlvalue.Value {
		if rnd.IntN(8) == 0 {
			return sqlvalue.Null
		}
		return v
	}
	tb := db.Table("p")
	var victims []int
	for r := 0; r < n; r++ {
		if err := tb.Insert(storage.Row{
			sqlvalue.NewInt(int64(r)),
			pick(sqlvalue.NewInt(rnd.Int64N(7) - 3)),
			pick(sqlvalue.NewDate(rnd.Int64N(5))),
			pick(sqlvalue.NewFloat(floats[rnd.IntN(len(floats))])),
			pick(sqlvalue.NewString(strs[rnd.IntN(len(strs))])),
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
	if st := tb.Store(); st.Len() != n {
		t.Fatalf("the store compacted: %d of %d ordinals left", st.Len(), n)
	}
	return db
}

// predGen reads a predicate over table p from bytes (zeros once they run
// out): comparisons, IS [NOT] NULL, LIKE, NOT and OR over columns, constants
// of every kind (NULL and specials included) and arithmetic chains, and bare
// terms, whose non-boolean values make the predicate fail.
type predGen struct{ b []byte }

func (g *predGen) next(n int) int {
	if len(g.b) == 0 {
		return 0
	}
	v := int(g.b[0])
	g.b = g.b[1:]
	return v % n
}

func (g *predGen) pred(depth int) expr.Expr {
	switch c := g.next(8); {
	case depth > 2 || c < 3:
		return expr.NewCmp(expr.CmpOp(g.next(6)), g.term(depth+1), g.term(depth+1))
	case c == 3:
		return expr.IsNull{E: g.term(depth + 1), Negate: g.next(2) == 1}
	case c == 4:
		return expr.Like{E: g.term(depth + 1), Pattern: expr.C(sqlvalue.NewString([]string{"a%", "_", "%b"}[g.next(3)]))}
	case c == 5:
		return expr.Not{E: g.pred(depth + 1)}
	case c == 6:
		return expr.Or{Args: []expr.Expr{g.pred(depth + 1), g.pred(depth + 1)}}
	}
	return g.term(depth + 1)
}

func (g *predGen) term(depth int) expr.Expr {
	switch c := g.next(10); {
	case depth > 3 || c < 4:
		return expr.Col(0, g.next(6)) // column 5 is out of range: NULL
	case c < 6:
		return expr.C([]sqlvalue.Value{
			sqlvalue.NewInt(int64(g.next(7) - 3)), sqlvalue.NewDate(int64(g.next(5))),
			sqlvalue.NewFloat(math.NaN()), sqlvalue.NewFloat(math.Copysign(0, -1)), sqlvalue.NewFloat(math.Inf(1)),
			sqlvalue.NewFloat(1.5), sqlvalue.NewString("a"), sqlvalue.Null, sqlvalue.NewBool(g.next(2) == 1),
		}[g.next(9)])
	case c == 6:
		return expr.NewArith(expr.ArithOp(g.next(4)), g.term(depth+1), g.term(depth+1))
	case c == 7:
		return expr.Neg{E: g.term(depth + 1)}
	case c == 8:
		return expr.Func{Name: "ABS", Args: []expr.Expr{g.term(depth + 1)}}
	}
	return expr.C(sqlvalue.Null)
}

// filter reads one to four conjuncts; more than one make an AND.
func (g *predGen) filter() expr.Expr {
	parts := make([]expr.Expr, 1+g.next(4))
	for k := range parts {
		parts[k] = g.pred(0)
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return expr.And{Args: parts}
}

// failure runs f and renders what it failed with, error or panic ("" when
// it did not).
func failure(f func() error) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint("panic: ", p)
		}
	}()
	if err := f(); err != nil {
		return "error: " + err.Error()
	}
	return ""
}

// rowByRow is the definition a scan predicate is held to: the live rows of
// st in order, each boxed and tested by expr.CompilePredicate, stopping at
// the first failure. Rows are numbered by ordinal, which p's id column
// holds.
func rowByRow(st *storage.ColumnStore, filter expr.Expr) (ords []int, fail string) {
	fail = failure(func() error {
		pred := expr.CompilePredicate(filter)
		row := make(storage.Row, st.NumCols())
		for i := 0; i < st.Len(); i++ {
			if st.IsDead(i) {
				continue
			}
			for c := range row {
				row[c] = st.Value(i, c)
			}
			ok, err := pred(row)
			if err != nil {
				return err
			}
			if ok {
				ords = append(ords, i)
			}
		}
		return nil
	})
	if fail != "" {
		return nil, fail
	}
	return ords, ""
}

// checkScanPredicate requires engine scans of p at one and two workers, and
// MatchOrdinals when it takes the filter, to find rowByRow's ordinals and
// failure. It returns the scan it ran, which holds the compiled filter.
func checkScanPredicate(t *testing.T, db *storage.Database, filter expr.Expr) *TableScan {
	t.Helper()
	plan := &TableScan{Table: "p", NCols: 5, Filter: filter}
	checkScanPlan(t, db, plan)
	return plan
}

// checkScanPlan is checkScanPredicate for a scan that may already hold a
// filter compiled over another store.
func checkScanPlan(t *testing.T, db *storage.Database, plan *TableScan) {
	t.Helper()
	st, filter := db.Table("p").Store(), plan.Filter
	want, wantFail := rowByRow(st, filter)
	for _, e := range []*Engine{{Workers: 1}, {Workers: 2, BatchSize: 300}} {
		var got []int
		fail := failure(func() error {
			rows, err := e.Run(db, plan)
			for _, r := range rows {
				got = append(got, int(r[0].Int()))
			}
			return err
		})
		if fail != wantFail || (fail == "" && !slices.Equal(got, want)) {
			t.Fatalf("engine %+v on %s:\n got %d rows, failure %q\nwant %d rows, failure %q",
				*e, filter, len(got), fail, len(want), wantFail)
		}
	}
	var ords []int
	ok := false
	if fail := failure(func() error { ords, ok = MatchOrdinals(st, filter); return nil }); fail != "" {
		if fail != wantFail {
			t.Fatalf("MatchOrdinals on %s: %s, row by row %q", filter, fail, wantFail)
		}
	} else if ok && (wantFail != "" || !slices.Equal(ords, want)) {
		t.Fatalf("MatchOrdinals on %s: %d ordinals, row by row %d and %q", filter, len(ords), len(want), wantFail)
	}
}

// FuzzScanPredicate holds the scan's kernels and boxed conjuncts, together,
// to row-at-a-time evaluation: the same ordinals, and the same first error
// or panic, over tables up to 2 100 rows (crossing a block boundary) with
// NULLs, float specials and tombstones. The filter the first table's scan
// compiled is then bound to a second table of other rows: used as it is when
// the column kinds are the same, recompiled when one is all-NULL in just one
// of the two.
func FuzzScanPredicate(f *testing.F) {
	f.Add(uint16(2100), uint8(7), []byte{0, 1, 4, 0, 3, 1, 4, 0, 5, 0})
	f.Add(uint16(1500), uint8(0), []byte{3, 2, 0, 2, 4, 3, 0, 0, 1, 3, 4, 5, 2})
	f.Add(uint16(1100), uint8(3), []byte{2, 9, 0, 6, 6, 2, 0, 1, 0, 3, 2, 7, 4, 1})
	f.Add(uint16(40), uint8(2), []byte{1, 7, 4, 4, 1, 0, 8, 0, 3, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, rows uint16, dead uint8, prog []byte) {
		n := 1 + int(rows)%2100
		db := predDB(t, n, int(dead), rand.New(rand.NewPCG(uint64(rows), uint64(dead))))
		plan := checkScanPredicate(t, db, (&predGen{b: prog}).filter())
		other := predDB(t, 1+(7*n+13)%2100, int(dead)+1, rand.New(rand.NewPCG(uint64(rows)+1, uint64(dead))))
		compiled := plan.pred.Load()
		checkScanPlan(t, other, plan)
		st := other.Table("p").Store()
		cols := make([]storage.ColView, st.NumCols())
		for c := range cols {
			cols[c] = st.Col(c)
		}
		if compiled != nil && compiled.fits(cols) != (plan.pred.Load() == compiled) {
			t.Fatalf("a store of the same kinds recompiled, or one of other kinds did not: %v", plan.pred.Load().kinds)
		}
	})
}

// TestScanConjunctOrder pins what running conjuncts one at a time over a
// selection must keep of row-at-a-time evaluation: a kernel's NULL does not
// stop a later failing conjunct, its FALSE does, and of two failing rows the
// first in row order is reported, whichever conjunct fails there, also when
// the two rows lie in live runs that tombstones split at a block boundary.
func TestScanConjunctOrder(t *testing.T) {
	const B = storage.BlockRows
	id := expr.Col(0, 0)
	nullKernel := expr.NewCmp(expr.EQ, expr.Col(0, 1), expr.C(sqlvalue.Null)) // NULL on every row
	falseKernel := expr.NewCmp(expr.LT, id, expr.CInt(0))                     // FALSE on every row
	before := func(r int) expr.Expr { return expr.NewCmp(expr.LT, id, expr.CInt(int64(r))) }
	// errAt is TRUE below row r and an error from it on (INTEGER + VARCHAR);
	// panicAt is TRUE below row r and panics from it on (OR over an INTEGER).
	errAt := func(r int) expr.Expr {
		bad := expr.NewArith(expr.Add, id, expr.C(sqlvalue.NewString("a")))
		return expr.Or{Args: []expr.Expr{before(r), expr.NewCmp(expr.GT, bad, expr.CInt(0))}}
	}
	panicAt := func(r int) expr.Expr {
		return expr.Or{Args: []expr.Expr{before(r), expr.NewArith(expr.Add, id, expr.CInt(1))}}
	}

	plain := predDB(t, 2*B+100, 0, rand.New(rand.NewPCG(1, 2)))
	tomb := predDB(t, 2*B+100, 0, rand.New(rand.NewPCG(1, 2)))
	var victims []int
	for r := B - 10; r < B+10; r++ {
		victims = append(victims, r)
	}
	if _, err := tomb.Table("p").DeleteOrds(victims); err != nil || tomb.Table("p").Store().BlockDead(0) != 10 {
		t.Fatalf("tombstones at the block boundary: %v", err)
	}

	cases := []struct {
		name   string
		filter expr.Expr
		want   string // the prefix of rowByRow's failure; "" for none
	}{
		{"null-kernel-then-error", expr.And{Args: []expr.Expr{nullKernel, errAt(0)}}, "error: "},
		{"null-kernel-then-panic", expr.And{Args: []expr.Expr{nullKernel, panicAt(0)}}, "panic: "},
		{"false-kernel-suppresses", expr.And{Args: []expr.Expr{falseKernel, errAt(0), panicAt(0)}}, ""},
		{"later-conjunct-earlier-row", expr.And{Args: []expr.Expr{panicAt(B - 30), nullKernel, errAt(B - 40)}}, "error: "},
		{"earlier-conjunct-earlier-row", expr.And{Args: []expr.Expr{errAt(B - 40), nullKernel, panicAt(B - 30)}}, "error: "},
		{"across-runs-error-first", expr.And{Args: []expr.Expr{panicAt(B + 12), nullKernel, errAt(B - 12)}}, "error: "},
		{"across-runs-panic-first", expr.And{Args: []expr.Expr{errAt(B + 12), panicAt(B - 12)}}, "panic: "},
	}
	for _, tc := range cases {
		for name, db := range map[string]*storage.Database{"": plain, "tombstones/": tomb} {
			t.Run(name+tc.name, func(t *testing.T) {
				_, fail := rowByRow(db.Table("p").Store(), tc.filter)
				if !strings.HasPrefix(fail, tc.want) || (tc.want == "") != (fail == "") {
					t.Fatalf("row by row fails with %q, want %q…", fail, tc.want)
				}
				checkScanPredicate(t, db, tc.filter)
			})
		}
	}
}

// BenchmarkScanKernel measures a scan filter's cost per row for one
// column ⊙ constant conjunct, by payload kind, with and without NULLs, at 1,
// 50 and 99 % selectivity, over 64 blocks of one column.
func BenchmarkScanKernel(b *testing.B) {
	const n = 64 * storage.BlockRows
	for _, kind := range []sqlvalue.Kind{sqlvalue.KindInt, sqlvalue.KindFloat, sqlvalue.KindString} {
		for _, nullable := range []bool{false, true} {
			c := catalog.New()
			if err := c.Add(&catalog.Table{Name: "k", Columns: []catalog.Column{{Name: "v", Type: kind, NotNull: !nullable}}}); err != nil {
				b.Fatal(err)
			}
			db := storage.NewDatabase(c)
			rnd := rand.New(rand.NewPCG(3, 4))
			val := func(x int) sqlvalue.Value { // x in [0,100): the selectivity of v < x is x %
				switch kind {
				case sqlvalue.KindInt:
					return sqlvalue.NewInt(int64(x))
				case sqlvalue.KindFloat:
					return sqlvalue.NewFloat(float64(x))
				}
				return sqlvalue.NewString(fmt.Sprintf("k%02d", x))
			}
			for r := 0; r < n; r++ {
				v := val(rnd.IntN(100))
				if nullable && r%16 == 0 {
					v = sqlvalue.Null
				}
				if err := db.Table("k").Insert(storage.Row{v}); err != nil {
					b.Fatal(err)
				}
			}
			st := db.Table("k").Store()
			for _, pct := range []int{1, 50, 99} {
				filter := expr.NewCmp(expr.LT, expr.Col(0, 0), expr.C(val(pct)))
				b.Run(fmt.Sprintf("%s/nullable=%t/sel=%d%%", kind, nullable, pct), func(b *testing.B) {
					s, err := newScanSource(st, filter, nil)
					if err != nil {
						b.Fatal(err)
					}
					var sc scanScratch
					b.ResetTimer()
					for range b.N {
						for lo := 0; lo < n; lo += storage.BlockRows {
							if sc.rids, err = s.morselRids(lo, lo+storage.BlockRows, &sc, sc.rids[:0]); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				})
			}
		}
	}
}
