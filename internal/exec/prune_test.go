package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// pruneDB builds a probe table "big" of six blocks (the last ragged) whose
// key columns are clustered, and a build table "small" holding copies of ten
// rows of big's block 4.
//
// columns: 0 seq int, 1 day date (10000 + seq/8), 2 half int (seq/2),
// 3 fseq float (seq), 4 sseq string, 5 nk int (NULL throughout block 2, seq
// elsewhere), 6 note string (NULL but for row 7), 7 val int.
func pruneDB(t *testing.T) (*storage.Database, int) {
	t.Helper()
	const B = storage.BlockRows
	n := 5*B + 300
	c := catalog.New()
	for _, name := range []string{"big", "small"} {
		if err := c.Add(&catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "seq", Type: sqlvalue.KindInt, NotNull: true},
				{Name: "day", Type: sqlvalue.KindDate},
				{Name: "half", Type: sqlvalue.KindInt},
				{Name: "fseq", Type: sqlvalue.KindFloat},
				{Name: "sseq", Type: sqlvalue.KindString},
				{Name: "nk", Type: sqlvalue.KindInt},
				{Name: "note", Type: sqlvalue.KindString},
				{Name: "val", Type: sqlvalue.KindInt, NotNull: true},
			},
			PrimaryKey: []int{0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	row := func(i int) storage.Row {
		nk, note := sqlvalue.NewInt(int64(i)), sqlvalue.Null
		if i/B == 2 {
			nk = sqlvalue.Null
		}
		if i == 7 {
			note = sqlvalue.NewString("oops")
		}
		return storage.Row{
			sqlvalue.NewInt(int64(i)), sqlvalue.NewDate(int64(10000 + i/8)), sqlvalue.NewInt(int64(i / 2)),
			sqlvalue.NewFloat(float64(i)), sqlvalue.NewString(fmt.Sprintf("%06d", i)), nk, note,
			sqlvalue.NewInt(int64(i % 13)),
		}
	}
	for i := 0; i < n; i++ {
		if err := db.Table("big").Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4*B + 10; i < 4*B+20; i++ {
		if err := db.Table("small").Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db, n
}

// TestJoinPruneEquivalence: a hash join's probe scan skips the blocks the
// build's key range rules out, and the engine still equals the reference —
// which probes every row — at every worker count and batch size. Pruning
// fires on clustered INTEGER and DATE keys, a two-column int key, an empty
// build and an all-NULL key block; it never fires on float or string keys or
// under a probe filter that may fail, which must still fail with the
// reference's error although its failing row lies outside the build range.
func TestJoinPruneEquivalence(t *testing.T) {
	db, n := pruneDB(t)
	small := &TableScan{Table: "small", NCols: 8}
	big := &TableScan{Table: "big", NCols: 8}
	join := func(l Node, lc, rc []int) *HashJoin { return &HashJoin{L: l, R: big, LCols: lc, RCols: rc} }
	seq := expr.Col(0, 0)
	ends := &TableScan{Table: "big", NCols: 8, Filter: expr.Or{Args: []expr.Expr{ // keys 0..2 and n-3..n-1
		expr.NewCmp(expr.LT, seq, expr.CInt(3)), expr.NewCmp(expr.GE, seq, expr.CInt(int64(n-3)))}}}
	failing := expr.NewCmp(expr.GT, expr.NewArith(expr.Add, expr.Col(0, 6), expr.CInt(1)), expr.CInt(0))
	cases := []struct {
		name  string
		plan  Node
		skips int64 // blocks skipped at the block-aligned batch size, build scan included
	}{
		{"int", join(small, []int{0}, []int{0}), 5},
		{"date", join(small, []int{1}, []int{1}), 5},
		{"two-int", join(small, []int{0, 2}, []int{0, 2}), 5},
		{"int-build-date-probe", join(small, []int{0}, []int{1}), 6},
		{"empty-build", join(&TableScan{Table: "small", NCols: 8, Filter: expr.NewCmp(expr.LT, seq, expr.CInt(0))}, []int{0}, []int{0}), 1 + 6},
		{"all-null-block", join(ends, []int{5}, []int{5}), 4 + 1},
		{"safe-probe-filter", &HashJoin{L: small, LCols: []int{0}, RCols: []int{0},
			R: &TableScan{Table: "big", NCols: 8, Filter: expr.NewCmp(expr.GE, expr.Col(0, 7), expr.CInt(2))}}, 5},
		{"float", join(small, []int{3}, []int{3}), 0},
		{"string", join(small, []int{4}, []int{4}), 0},
		{"int-build-float-probe", join(small, []int{0}, []int{3}), 0},
		{"error-unsafe-probe-filter", &HashJoin{L: small, LCols: []int{0}, RCols: []int{0},
			R: &TableScan{Table: "big", NCols: 8, Filter: failing}}, 0},
	}
	for _, tc := range cases {
		want, refErr := RunReference(db, tc.plan)
		if (refErr != nil) != strings.HasPrefix(tc.name, "error-") {
			t.Fatalf("%s: reference: %v", tc.name, refErr)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, bs := range []int{1, 3, 1024} {
				ResetScanStats()
				got, err := (&Engine{Workers: workers, BatchSize: bs}).Run(db, tc.plan)
				skipped := ReadScanStats().BlocksSkipped
				if refErr != nil {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("%s w=%d bs=%d: error %v, reference %v", tc.name, workers, bs, err, refErr)
					}
					continue
				}
				if err != nil || !rowsExactlyEqual(got, want) {
					t.Fatalf("%s w=%d bs=%d: %d rows (%v), reference %d", tc.name, workers, bs, len(got), err, len(want))
				}
				if (skipped > 0) != (tc.skips > 0) || (bs == 1024 && skipped != tc.skips) {
					t.Fatalf("%s w=%d bs=%d: %d blocks skipped, want %d at bs=1024", tc.name, workers, bs, skipped, tc.skips)
				}
			}
		}
	}
}

// TestPrunedProbeRunsInline: Engine.run sizes its workers by the morsels that
// survive zone-map pruning, so a probe the build prunes to one block runs on
// one worker — inline — while the same probe unpruned takes all four, and
// both answers equal the reference.
func TestPrunedProbeRunsInline(t *testing.T) {
	db, _ := pruneDB(t)
	e := &Engine{Workers: 4}
	for _, tc := range []struct {
		key     int
		workers int
	}{{0, 1}, {3, 4}} { // int key: pruned to block 4; float key: never pruned
		plan := &HashJoin{L: &TableScan{Table: "small", NCols: 8}, R: &TableScan{Table: "big", NCols: 8},
			LCols: []int{tc.key}, RCols: []int{tc.key}}
		p, err := e.decompose(db, plan)
		if err != nil {
			t.Fatal(err)
		}
		var buckets [][]storage.Row
		spec := gatherColumns(p.layout)
		sinks, err := e.run(p, func(nm int) ridSink {
			if buckets == nil {
				buckets = make([][]storage.Row, nm)
			}
			return newGatherSink(spec, buckets)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sinks) != tc.workers {
			t.Errorf("key %d: probe ran on %d workers, want %d", tc.key, len(sinks), tc.workers)
		}
		want, err := RunReference(db, plan)
		if got := slices.Concat(buckets...); err != nil || !rowsExactlyEqual(got, want) || len(got) != 10 {
			t.Errorf("key %d: %d rows, reference %d (%v)", tc.key, len(got), len(want), err)
		}
	}
}
