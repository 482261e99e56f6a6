//go:build !race

package exec

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// allocBytes is the mean number of heap bytes one call of f allocates, once
// f is warm: one call first fills the sync.Pools f draws from, then the
// measured calls run with the collector off, so no collection empties a pool
// between them. A pool also keeps one item per P that no other P can take,
// so a goroutine that moves to another P between a Put and the next Get
// allocates afresh what it reuses; the measured calls come in three batches,
// and the cheapest batch is the cost.
func allocBytes(runs int, f func()) float64 {
	f()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(best) / float64(runs)
}

// TestRowAllocSizedToRowsEmitted: a stage that emits one row pays for a few
// rows, not for a rowAllocSlab of them, and a stage that emits many still
// allocates once per rowAllocSlab values (within a tenth).
func TestRowAllocSizedToRowsEmitted(t *testing.T) {
	if b := allocBytes(100, func() { new(rowAlloc).row(2) }); b >= 1024 {
		t.Errorf("one row of width 2 allocates %.0f bytes, want under 1 KB", b)
	}
	const rows, width = 100_000, 4
	oldSlabs := float64(rows*width+rowAllocSlab-1) / rowAllocSlab
	n := testing.AllocsPerRun(3, func() {
		var a rowAlloc
		for i := 0; i < rows; i++ {
			a.row(width)
		}
	})
	if n > 1.1*oldSlabs {
		t.Errorf("%d rows of width %d: %v slabs, want at most 1.1 × %v", rows, width, n, oldSlabs)
	}
	// Rows never overlap, whatever slab they come from.
	var a rowAlloc
	seen := map[*sqlvalue.Value]bool{}
	for i := 0; i < 3000; i++ {
		r := a.row(1 + i%7)
		if len(r) != cap(r) || seen[&r[0]] || seen[&r[len(r)-1]] {
			t.Fatalf("row %d overlaps an earlier one or has spare capacity", i)
		}
		seen[&r[0]], seen[&r[len(r)-1]] = true, true
	}
}

// TestViewSeekAllocs: Project(ViewSeek) answering with one row costs the
// index-key string, the row header slice, its value slab and the boxed
// source — not a pipeline.
func TestViewSeekAllocs(t *testing.T) {
	db := smallDB(t)
	rows := make([]storage.Row, 500)
	for i := range rows {
		rows[i] = storage.Row{sqlvalue.NewInt(int64(i)), sqlvalue.NewString("x"), sqlvalue.NewFloat(float64(i) / 3)}
	}
	mv, err := db.PutView("mv_alloc", storage.StoreOf(3, rows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	plan := &Project{In: &ViewScan{View: "mv_alloc", NCols: 3, EqCols: []int{0}, EqVals: storage.Row{sqlvalue.NewInt(77)}},
		Exprs: []expr.Expr{expr.Col(0, 0), expr.Col(0, 2)}}
	db.Commit()
	snap := db.Snapshot() // what the server executes against
	defer snap.Release()
	e := &Engine{}
	got, err := e.Run(snap, plan)
	if err != nil || len(got) != 1 || len(got[0]) != 2 || got[0][0].Int() != 77 {
		t.Fatalf("seek returned %v, %v", got, err)
	}
	if n := testing.AllocsPerRun(100, func() { e.Run(snap, plan) }); n > 4 {
		t.Errorf("Project(ViewSeek) of one row: %v allocations, want at most 4", n)
	}
	if b := allocBytes(100, func() { e.Run(snap, plan) }); b > 256 {
		t.Errorf("Project(ViewSeek) of one row: %.0f bytes, want at most 256", b)
	}
}

// intTable is one table "t" of n rows: a unique int key, the key modulo 25, a
// float.
func intTable(t *testing.T, n int) *storage.Database {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "k", Type: sqlvalue.KindInt, NotNull: true}, {Name: "g", Type: sqlvalue.KindInt, NotNull: true},
		{Name: "x", Type: sqlvalue.KindFloat, NotNull: true},
	}}); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	for i := 0; i < n; i++ {
		k := int64(i) * 7919 % int64(n) // distinct, not in order
		if err := db.Table("t").Insert(storage.Row{sqlvalue.NewInt(k), sqlvalue.NewInt(k % 25), sqlvalue.NewFloat(float64(k) / 8)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestJoinBuildAllocs: a build allocates flat arrays — a number of objects
// that grows with the workers and the logarithm of the input, not with its
// keys (34 and 56 today; the per-key slices it replaced cost two objects a
// key) — and, its collect arrays being reused, only the table it returns: a
// repeated 50 000-key build allocates 1.5 MB (4.4 MB when every build grew its
// collect arrays afresh). A build of ten rows, what the maintainer's delta
// joins are, stays as small as it was.
func TestJoinBuildAllocs(t *testing.T) {
	db := intTable(t, 50_000)
	build := &HashJoin{L: &TableScan{Table: "t", NCols: 3}, LCols: []int{0}}
	for workers, ceiling := range map[int]float64{1: 150, 4: 200} {
		e := &Engine{Workers: workers}
		b, _, err := e.buildRidJoin(db, build)
		if err != nil || b.tab.n != 50_000 {
			t.Fatalf("build: %v, %v", b, err)
		}
		if n := testing.AllocsPerRun(5, func() { e.buildRidJoin(db, build) }); n > ceiling {
			t.Errorf("50 000-key build on %d worker(s): %v allocations, want at most %v", workers, n, ceiling)
		}
		if n := allocBytes(5, func() { e.buildRidJoin(db, build) }); n > 2<<20 {
			t.Errorf("50 000-key build on %d worker(s): %.0f bytes, want at most 2 MB", workers, n)
		}
	}
	small := intTable(t, 10)
	e := &Engine{}
	if b := allocBytes(200, func() { e.buildRidJoin(small, build) }); b > 3000 {
		t.Errorf("10-row build: %.0f bytes, want at most 3000 (the map-and-slices build took 3704)", b)
	}
}

// TestRidAggAllocs: 25 groups over 100 000 tuples cost a constant (70
// objects today).
func TestRidAggAllocs(t *testing.T) {
	db := intTable(t, 100_000)
	agg := &HashAgg{
		In:      &TableScan{Table: "t", NCols: 3},
		GroupBy: []expr.Expr{expr.Col(0, 1)},
		Aggs:    []AggSpec{{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 2)}}, {Num: SimpleAgg{Kind: spjg.AggCountStar}}},
	}
	e := &Engine{Workers: 1}
	if rows, err := e.Run(db, agg); err != nil || len(rows) != 25 {
		t.Fatalf("%d groups, %v", len(rows), err)
	}
	if n := testing.AllocsPerRun(5, func() { e.Run(db, agg) }); n > 100 {
		t.Errorf("25 groups over 100 000 tuples: %v allocations, want at most 100", n)
	}
}

// TestCachedScanCompilesOnce: a second execution of a filtered scan binds
// the filter its first execution compiled. It allocates less than the same
// plan built anew, by at least what compiling that filter allocates.
func TestCachedScanCompilesOnce(t *testing.T) {
	db := zoneDB(t, 3*storage.BlockRows)
	filter := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col(0, 0), expr.CInt(100)),
		expr.NewCmp(expr.LE, expr.Col(0, 0), expr.CInt(140)),
		expr.NewCmp(expr.NE, expr.Col(0, 1), expr.CInt(3)))
	cached := &TableScan{Table: "events", NCols: 3, Filter: filter}
	run := func(n Node) {
		if _, err := n.Run(db); err != nil {
			t.Fatal(err)
		}
	}
	run(cached)
	kinds := cached.pred.Load().kinds
	compile := testing.AllocsPerRun(200, func() { compileScanPred(filter, kinds) })
	again := testing.AllocsPerRun(200, func() { run(cached) })
	fresh := testing.AllocsPerRun(200, func() { run(&TableScan{Table: "events", NCols: 3, Filter: filter}) })
	t.Logf("allocations: cached scan %v, fresh scan %v, compiling the filter %v", again, fresh, compile)
	if compile == 0 || fresh-again < compile {
		t.Errorf("a cached scan makes %v allocations, a fresh one %v: %v apart, compiling the filter makes %v",
			again, fresh, fresh-again, compile)
	}
}

// TestDeltaTermAllocs: a delta term's stages, chain and sink are built on
// its first run and rebound per statement, and its rows are cut from slabs
// the next run reuses, so a warm Select+Run of smallDB's emp ⋈ dept — as a
// rollup into the group table, and as a projection through the gather —
// over a 10-row Δ allocates at most deltaTermBytes + 10 %: nothing. Building
// the chain per statement costs 1.2 KB (projection) to 2 KB (rollup) more.
func TestDeltaTermAllocs(t *testing.T) {
	const deltaTermBytes = 0
	db := smallDB(t)
	cat := db.Catalog
	from := []spjg.TableRef{{Table: cat.Table("emp")}, {Table: cat.Table("dept")}}
	join := expr.Eq(expr.Col(0, 1), expr.Col(1, 0))
	rows := make([]storage.Row, 10)
	for i := range rows {
		rows[i] = storage.Row{sqlvalue.NewInt(int64(100 + i)), sqlvalue.NewInt(int64(1 + i%2)), sqlvalue.NewInt(int64(10 * i)), sqlvalue.Null}
	}
	delta := storage.StoreOf(4, rows)
	for _, c := range []struct {
		what string
		q    *spjg.Query
		rows int
	}{
		{"rollup", &spjg.Query{Tables: from, Where: join, GroupBy: []expr.Expr{expr.Col(1, 1)}, Outputs: []spjg.OutputColumn{
			{Name: "name", Expr: expr.Col(1, 1)},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "pay", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, 2)}},
		}}, 2},
		{"projection", &spjg.Query{Tables: from, Where: join, Outputs: []spjg.OutputColumn{
			{Name: "id", Expr: expr.Col(0, 0)},
			{Name: "name", Expr: expr.Col(1, 1)},
			{Name: "pay2", Expr: expr.NewArith(expr.Mul, expr.Col(0, 2), expr.CInt(2))},
		}}, 10},
	} {
		term, err := CompileDeltaTerm(c.q, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		in := NewDeltaInput()
		var out []storage.Row
		run := func() {
			in.Bind(delta, db)
			if _, err := term.Select(in); err != nil {
				t.Fatal(err)
			}
			if out, err = term.Run(in); err != nil {
				t.Fatal(err)
			}
		}
		b := allocBytes(1000, run)
		if len(out) != c.rows {
			t.Fatalf("%s: the term returned %v", c.what, out)
		}
		t.Logf("%s: a warm Select+Run over 10 Δ rows allocates %.0f bytes", c.what, b)
		if b > deltaTermBytes*1.1 {
			t.Errorf("%s: a warm Select+Run over 10 Δ rows allocates %.0f bytes, want at most %d + 10 %%", c.what, b, deltaTermBytes)
		}
	}
}
