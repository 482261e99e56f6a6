package exec

import (
	"math"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// zoneDB builds a table spanning several blocks with a monotone key column
// (so zone maps are maximally selective), a modular column (so zones overlap
// everywhere and skipping never fires), and a nullable string column.
func zoneDB(t *testing.T, n int) *storage.Database {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{
		Name: "events",
		Columns: []catalog.Column{
			{Name: "seq", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "bucket", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "tag", Type: sqlvalue.KindString},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	tags := []sqlvalue.Value{
		sqlvalue.NewString("alpha"), sqlvalue.NewString("beta"), sqlvalue.Null,
	}
	for i := 0; i < n; i++ {
		if err := db.Table("events").Insert(storage.Row{
			sqlvalue.NewInt(int64(i)),
			sqlvalue.NewInt(int64(i % 97)),
			tags[i%len(tags)],
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestZoneSkipEquivalence: for predicates of every shape the zone-skip
// compiler understands, the engine and the reference evaluator — which reads
// every row and so never skips — must produce byte-identical output, and the
// engine must have skipped blocks exactly where the predicate is selective.
func TestZoneSkipEquivalence(t *testing.T) {
	n := 5*storage.BlockRows + 123 // 6 blocks, last one ragged
	db := zoneDB(t, n)
	seq := expr.Col(0, 0)
	bucket := expr.Col(0, 1)
	tag := expr.Col(0, 2)

	cases := []struct {
		name      string
		pred      expr.Expr
		wantSkips bool
	}{
		{"lt-first-block", expr.NewCmp(expr.LT, seq, expr.CInt(10)), true},
		{"gt-last-block", expr.NewCmp(expr.GT, seq, expr.CInt(int64(n-5))), true},
		{"between", expr.And{Args: []expr.Expr{
			expr.NewCmp(expr.GE, seq, expr.CInt(2048)),
			expr.NewCmp(expr.LE, seq, expr.CInt(2100)),
		}}, true},
		{"eq-point", expr.NewCmp(expr.EQ, seq, expr.CInt(3000)), true},
		{"or-points", expr.Or{Args: []expr.Expr{
			expr.NewCmp(expr.EQ, seq, expr.CInt(5)),
			expr.NewCmp(expr.EQ, seq, expr.CInt(int64(n-7))),
		}}, true},
		{"contradiction", expr.And{Args: []expr.Expr{
			expr.NewCmp(expr.LT, seq, expr.CInt(100)),
			expr.NewCmp(expr.GT, seq, expr.CInt(200)),
		}}, true},
		{"overlapping-zones", expr.NewCmp(expr.EQ, bucket, expr.CInt(42)), false},
		{"incomparable-const", expr.NewCmp(expr.EQ, seq, expr.C(sqlvalue.NewString("x"))), true},
		{"null-aware", expr.Not{E: expr.IsNull{E: tag}}, false},
		{"mixed", expr.And{Args: []expr.Expr{
			expr.NewCmp(expr.LT, seq, expr.CInt(int64(storage.BlockRows))),
			expr.NewCmp(expr.NE, tag, expr.C(sqlvalue.NewString("beta"))),
		}}, true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &TableScan{Table: "events", NCols: 3, Filter: tc.pred}
			want, err := RunReference(db, plan)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, workers := range []int{1, 2, 4} {
				// Include batch sizes that do not divide BlockRows, so
				// morsels straddle block boundaries.
				for _, bs := range []int{100, 1500, 1024} {
					ResetScanStats()
					got, err := (&Engine{Workers: workers, BatchSize: bs}).Run(db, plan)
					if err != nil {
						t.Fatalf("w=%d bs=%d: %v", workers, bs, err)
					}
					stats := ReadScanStats()
					if !rowsExactlyEqual(got, want) {
						t.Fatalf("w=%d bs=%d: skipping engine differs from reference", workers, bs)
					}
					if tc.wantSkips && stats.BlocksSkipped == 0 {
						t.Fatalf("w=%d bs=%d: expected block skips, stats=%+v", workers, bs, stats)
					}
					if !tc.wantSkips && stats.BlocksSkipped != 0 {
						t.Fatalf("w=%d bs=%d: unexpected block skips, stats=%+v", workers, bs, stats)
					}
				}
			}
		})
	}
}

// TestZoneMapSeesPastNaN: a NaN compares equal to everything, so a block
// whose first non-NULL value is NaN must not be skipped on the strength of a
// Min = Max = NaN zone — its later values still have to be read.
func TestZoneMapSeesPastNaN(t *testing.T) {
	c := catalog.New()
	if err := c.Add(&catalog.Table{Name: "f", Columns: []catalog.Column{{Name: "x", Type: sqlvalue.KindFloat}}}); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	for _, x := range []float64{math.NaN(), 5} {
		if err := db.Table("f").Insert(storage.Row{sqlvalue.NewFloat(x)}); err != nil {
			t.Fatal(err)
		}
	}
	plan := &TableScan{Table: "f", NCols: 1, Filter: expr.NewCmp(expr.GT, expr.Col(0, 0), expr.CInt(3))}
	want, err := RunReference(db, plan)
	if err != nil || len(want) != 1 || want[0][0].Float() != 5 {
		t.Fatalf("reference = %v, %v; want [[5]]", want, err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := (&Engine{Workers: workers, BatchSize: 1024}).Run(db, plan)
		if err != nil || !rowsExactlyEqual(got, want) {
			t.Fatalf("w=%d: engine = %v, %v; want %v", workers, got, err, want)
		}
	}
}

// TestZoneSkipStatsAccounting: an unfiltered scan never skips, and the
// scanned+skipped totals for a selective scan cover every block exactly once
// per morsel-segment pass.
func TestZoneSkipStatsAccounting(t *testing.T) {
	n := 4 * storage.BlockRows
	db := zoneDB(t, n)
	e := &Engine{Workers: 1, BatchSize: storage.BlockRows}

	ResetScanStats()
	if _, err := e.Run(db, &TableScan{Table: "events", NCols: 3}); err != nil {
		t.Fatal(err)
	}
	st := ReadScanStats()
	if st.BlocksSkipped != 0 || st.BlocksScanned != 4 {
		t.Fatalf("unfiltered scan stats = %+v", st)
	}
	if st.SkipRate() != 0 {
		t.Fatalf("skip rate = %v", st.SkipRate())
	}

	ResetScanStats()
	plan := &TableScan{Table: "events", NCols: 3,
		Filter: expr.NewCmp(expr.LT, expr.Col(0, 0), expr.CInt(10))}
	if _, err := e.Run(db, plan); err != nil {
		t.Fatal(err)
	}
	st = ReadScanStats()
	if st.BlocksScanned != 1 || st.BlocksSkipped != 3 {
		t.Fatalf("selective scan stats = %+v", st)
	}
	if r := st.SkipRate(); r != 0.75 {
		t.Fatalf("skip rate = %v", r)
	}
}

// TestViewSeekSnapshot is the regression test for the index-ordinal view-scan
// path: rows returned through an EqCols seek must be materialized copies, not
// aliases into the view's storage that later maintenance would overwrite.
func TestViewSeekSnapshot(t *testing.T) {
	db := smallDB(t)
	stored := []storage.Row{
		{sqlvalue.NewInt(1), sqlvalue.NewString("one")},
		{sqlvalue.NewInt(2), sqlvalue.NewString("two")},
		{sqlvalue.NewInt(2), sqlvalue.NewString("deux")},
	}
	v, err := db.PutView("mv_seek", storage.StoreOf(2, stored))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.BuildIndex([]int{0}, false); err != nil {
		t.Fatal(err)
	}
	seek := &ViewScan{View: "mv_seek", NCols: 2,
		EqCols: []int{0}, EqVals: storage.Row{sqlvalue.NewInt(2)}}
	// The bare seek, and the projection the engine answers straight from the
	// probe (text first, then a constant, the key, and an unbound reference).
	project := &Project{In: seek, Exprs: []expr.Expr{expr.Col(0, 1), expr.CInt(7), expr.Col(0, 0), expr.Col(0, 9)}}

	for _, e := range []*Engine{
		{Workers: 1, BatchSize: 1024},
		{Workers: 4, BatchSize: 1},
	} {
		for text, plan := range map[int]Node{1: seek, 0: project} {
			rows, err := e.Run(db, plan)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunReference(db, plan)
			if err != nil || !rowsExactlyEqual(rows, want) {
				t.Fatalf("%s: seek returned %v, reference %v, %v", plan.Describe(), rows, want, err)
			}
			if len(rows) != 2 || rows[0][text].Str() != "two" || rows[1][text].Str() != "deux" {
				t.Fatalf("%s: seek returned %v", plan.Describe(), rows)
			}
			// Change the view the way maintenance of an SPJ view does: take a
			// matching row out and put another in its key, move a second one
			// out of the key.
			v.Delete([]int{1, 2})
			v.Append([]storage.Row{{sqlvalue.NewInt(2), sqlvalue.NewString("CLOBBERED")}, {sqlvalue.NewInt(3), sqlvalue.NewString("trois")}})
			if err := v.PatchIndexes(); err != nil {
				t.Fatal(err)
			}
			if !rowsExactlyEqual(rows, want) {
				t.Fatalf("%s: seek result aliased view storage: maintenance leaked into the earlier result %v", plan.Describe(), rows)
			}
			// Restore for the next configuration (PutView keeps the index).
			if v, err = db.PutView("mv_seek", storage.StoreOf(2, stored)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestZoneSkipNeverHidesErrors: a conjunction whose first conjunct is
// vectorized-false everywhere and whose second conjunct would error must not
// error (ordered short-circuit), while the reverse order must error — and
// both engines must agree with the reference in both orders.
func TestZoneSkipNeverHidesErrors(t *testing.T) {
	db := zoneDB(t, 2*storage.BlockRows)
	alwaysFalse := expr.NewCmp(expr.LT, expr.Col(0, 0), expr.CInt(-1))
	// LIKE over an integer column errors in this dialect.
	bad := expr.Like{E: expr.Col(0, 0), Pattern: expr.C(sqlvalue.NewString("x%"))}

	for name, pred := range map[string]expr.Expr{
		"false-then-error": expr.And{Args: []expr.Expr{alwaysFalse, bad}},
		"error-then-false": expr.And{Args: []expr.Expr{bad, alwaysFalse}},
	} {
		plan := &TableScan{Table: "events", NCols: 3, Filter: pred}
		want, refErr := RunReference(db, plan)
		for _, e := range []*Engine{
			{Workers: 1, BatchSize: 1024},
			{Workers: 2, BatchSize: 1500},
			{Workers: 4, BatchSize: 100},
		} {
			got, err := e.Run(db, plan)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: engine err %v, reference err %v", name, err, refErr)
			}
			if err != nil {
				if !strings.Contains(err.Error(), "LIKE") && err.Error() != refErr.Error() {
					t.Fatalf("%s: error %q vs reference %q", name, err, refErr)
				}
				continue
			}
			if !rowsExactlyEqual(got, want) {
				t.Fatalf("%s: rows differ", name)
			}
		}
	}
}

// TestTombstonesMatchReference: with dead rows in the first, a middle and the
// last block of a table and of a view — single rows, a run across a block
// boundary, a wholly dead block — scans, an aggregate, a join, an index seek
// and the DELETE locator see exactly the live rows the reference evaluator
// sees, in its order, at 1, 2 and 4 workers and at batch sizes that straddle
// blocks. The blocks without tombstones keep their zone-map skipping.
func TestTombstonesMatchReference(t *testing.T) {
	const B = storage.BlockRows
	n := 5*B + 77
	db := zoneDB(t, n)
	victims := []int{0, 7, B - 1, // first block, both edges
		2*B + 5, 2*B + 6, 2*B + 7, // a run inside a middle block
		n - 1, n - 20} // last block
	for i := 3*B - 40; i < 3*B+40; i++ { // a run across a block boundary
		victims = append(victims, i)
	}
	for i := 4 * B; i < 5*B; i++ { // a wholly dead block
		victims = append(victims, i)
	}
	tb := db.Table("events")
	view, err := db.PutView("mv_events", storage.StoreOf(3, tb.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.BuildIndex([]int{1}, false); err != nil {
		t.Fatal(err)
	}
	deleted, err := tb.DeleteOrds(victims)
	if err != nil || deleted.Len() != len(victims) {
		t.Fatalf("DeleteOrds removed %d of %d rows: %v", deleted.Len(), len(victims), err)
	}
	view.Delete(victims)
	if err := view.PatchIndexes(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*storage.ColumnStore{tb.Store(), view.Store()} {
		if st.Len() != n || st.Live() != n-len(victims) || st.BlockDead(4) != B || st.BlockDead(1) != 0 {
			t.Fatalf("store: len %d live %d dead[4] %d dead[1] %d", st.Len(), st.Live(), st.BlockDead(4), st.BlockDead(1))
		}
	}
	db.Commit()
	snap := db.Snapshot()
	defer snap.Release()

	seq, bucket := expr.Col(0, 0), expr.Col(0, 1)
	inFirstAndLast := expr.Or{Args: []expr.Expr{
		expr.NewCmp(expr.LT, seq, expr.CInt(20)),
		expr.NewCmp(expr.GT, seq, expr.CInt(int64(n-30))),
	}}
	plans := map[string]Node{
		"table-scan":   &TableScan{Table: "events", NCols: 3},
		"table-filter": &TableScan{Table: "events", NCols: 3, Filter: inFirstAndLast},
		"view-scan":    &ViewScan{View: "mv_events", NCols: 3},
		"view-filter":  &ViewScan{View: "mv_events", NCols: 3, Filter: expr.NewCmp(expr.GE, seq, expr.CInt(int64(3*B-50)))},
		"view-seek":    &ViewScan{View: "mv_events", NCols: 3, EqCols: []int{1}, EqVals: storage.Row{sqlvalue.NewInt(7)}},
		"agg": &HashAgg{In: &TableScan{Table: "events", NCols: 3}, GroupBy: []expr.Expr{bucket},
			Aggs: []AggSpec{{Num: SimpleAgg{Kind: spjg.AggCountStar}}, {Num: SimpleAgg{Kind: spjg.AggSum, Arg: seq}}}},
		"join": &HashJoin{
			L:     &ViewScan{View: "mv_events", NCols: 3, Filter: expr.NewCmp(expr.LT, seq, expr.CInt(50))},
			R:     &TableScan{Table: "events", NCols: 3, Filter: expr.NewCmp(expr.GE, seq, expr.CInt(int64(2*B)))},
			LCols: []int{1}, RCols: []int{1}},
	}
	for name, plan := range plans {
		want, err := RunReference(snap, plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, bs := range []int{100, 1024, 1500} {
				e := &Engine{Workers: workers, BatchSize: bs}
				ResetScanStats()
				got, err := e.Run(snap, plan)
				if err != nil {
					t.Fatalf("%s w=%d bs=%d: %v", name, workers, bs, err)
				}
				if !rowsExactlyEqual(got, want) {
					t.Fatalf("%s w=%d bs=%d: %d rows, reference %d", name, workers, bs, len(got), len(want))
				}
				if name == "table-filter" && ReadScanStats().BlocksSkipped == 0 {
					t.Fatalf("%s w=%d bs=%d: tombstones disabled zone-map skipping", name, workers, bs)
				}
			}
		}
	}
	if got := len(plansRows(t, snap, plans["table-scan"])); got != n-len(victims) {
		t.Fatalf("table scan returned %d rows, %d are live", got, n-len(victims))
	}

	// The DELETE locator agrees with the scan, filtered or not.
	for name, filter := range map[string]expr.Expr{"all": nil, "filtered": inFirstAndLast} {
		ords, ok := MatchOrdinals(tb.Store(), filter)
		if !ok {
			t.Fatalf("%s: MatchOrdinals declined a safe predicate", name)
		}
		want := plansRows(t, snap, &TableScan{Table: "events", NCols: 3, Filter: filter})
		if len(ords) != len(want) {
			t.Fatalf("%s: %d ordinals, scan has %d rows", name, len(ords), len(want))
		}
		for k, ord := range ords {
			if tb.Store().IsDead(ord) || tb.Store().Value(ord, 0).Int() != want[k][0].Int() {
				t.Fatalf("%s: ordinal %d is not row %v", name, ord, want[k])
			}
		}
	}
	// A predicate that can fail on a row (here: it is not a boolean) is left
	// to the row-at-a-time path.
	if _, ok := MatchOrdinals(tb.Store(), expr.And{Args: []expr.Expr{inFirstAndLast, expr.CInt(1)}}); ok {
		t.Fatal("MatchOrdinals took a predicate that errors")
	}
}

func plansRows(t *testing.T, db storage.Reader, plan Node) []storage.Row {
	t.Helper()
	rows, err := RunReference(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCachedScanFilterFollowsKinds: a view scan keeps the filter its first
// execution compiled and binds it to each later execution's store, until
// the store's column kinds change — here a column that held only NULLs
// takes INTEGER rows — when it compiles afresh; the answers equal the
// reference before and after.
func TestCachedScanFilterFollowsKinds(t *testing.T) {
	db := smallDB(t)
	mv, err := db.PutView("nv", storage.StoreOf(2, []storage.Row{{sqlvalue.NewInt(1), sqlvalue.Null}, {sqlvalue.NewInt(2), sqlvalue.Null}}))
	if err != nil {
		t.Fatal(err)
	}
	scan := &ViewScan{View: "nv", NCols: 2, Filter: expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col(0, 1), expr.CInt(5)),
		expr.NewCmp(expr.LE, expr.Col(0, 1), expr.CInt(10)))}
	plan := &Project{In: scan, Exprs: []expr.Expr{expr.Col(0, 0), expr.Col(0, 1)}}
	check := func(wantRows int) *scanPred {
		t.Helper()
		got, err := plan.Run(db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunReference(db, plan)
		if err != nil || !SameRows(got, want) || len(got) != wantRows {
			t.Fatalf("engine %v, reference %v (%v), want %d rows", got, want, err, wantRows)
		}
		return scan.pred.Load()
	}
	allNull := check(0)
	if allNull == nil || allNull.kinds[1] != sqlvalue.KindNull || check(0) != allNull {
		t.Fatalf("the all-NULL store's filter was not compiled once and kept: %+v", allNull)
	}
	mv.Append([]storage.Row{{sqlvalue.NewInt(3), sqlvalue.NewInt(7)}, {sqlvalue.NewInt(4), sqlvalue.NewInt(12)}, {sqlvalue.NewInt(5), sqlvalue.Null}})
	typed := check(1)
	if typed == allNull || typed.kinds[1] != sqlvalue.KindInt || check(1) != typed {
		t.Fatalf("the INTEGER store's filter was not compiled afresh and then kept: %+v", typed)
	}
}
