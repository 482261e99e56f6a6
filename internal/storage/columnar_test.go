package storage

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"matview/internal/sqlvalue"
)

// mkStore builds a 2-column store (int-ish key, string payload) from a value
// generator: gen(i) returns the row for ordinal i.
func mkStore(n int, gen func(i int) Row) *ColumnStore {
	var ncols int
	if n > 0 {
		ncols = len(gen(0))
	}
	cs := NewColumnStore(ncols)
	for i := 0; i < n; i++ {
		cs.AppendRow(gen(i))
	}
	return cs
}

// TestColumnarNullsAtBlockBoundary plants NULLs on both sides of a block
// boundary and checks the bitmap, boxed values, and per-block zone flags.
func TestColumnarNullsAtBlockBoundary(t *testing.T) {
	n := BlockRows + 8
	nullAt := map[int]bool{
		0:             true,
		BlockRows - 1: true, // last row of block 0
		BlockRows:     true, // first row of block 1
		n - 1:         true,
	}
	cs := mkStore(n, func(i int) Row {
		if nullAt[i] {
			return Row{sqlvalue.Null, sqlvalue.NewString("x")}
		}
		return Row{sqlvalue.NewInt(int64(i)), sqlvalue.NewString("x")}
	})
	if cs.NumBlocks() != 2 {
		t.Fatalf("blocks = %d", cs.NumBlocks())
	}
	col := cs.Col(0)
	for i := 0; i < n; i++ {
		if col.IsNull(i) != nullAt[i] {
			t.Fatalf("IsNull(%d) = %v", i, col.IsNull(i))
		}
		want := sqlvalue.Null
		if !nullAt[i] {
			want = sqlvalue.NewInt(int64(i))
		}
		if !sqlvalue.Identical(cs.Value(i, 0), want) {
			t.Fatalf("Value(%d) = %s", i, cs.Value(i, 0))
		}
	}
	for b := 0; b < 2; b++ {
		z := cs.Zone(0, b)
		if !z.Tracked || !z.HasNull || !z.HasNonNull {
			t.Fatalf("block %d zone = %+v", b, z)
		}
	}
	// Zone bounds exclude the NULLs.
	if z := cs.Zone(0, 0); z.Min.Int() != 1 || z.Max.Int() != int64(BlockRows-2) {
		t.Fatalf("block 0 zone = [%s, %s]", z.Min, z.Max)
	}
	if z := cs.Zone(0, 1); z.Min.Int() != int64(BlockRows+1) || z.Max.Int() != int64(n-2) {
		t.Fatalf("block 1 zone = [%s, %s]", z.Min, z.Max)
	}
	// Rows() must reproduce the NULLs at the same ordinals.
	rows := cs.Rows()
	if len(rows) != n || !rows[BlockRows][0].IsNull() || rows[BlockRows+1][0].Int() != int64(BlockRows+1) {
		t.Fatal("Rows() lost boundary NULLs")
	}
}

// TestColumnarAllNullBlock: a block whose column never sees a non-null value
// reports HasNonNull=false — the zone-skip fast path for fully-deleted data.
func TestColumnarAllNullBlock(t *testing.T) {
	cs := mkStore(BlockRows+4, func(i int) Row {
		if i < BlockRows {
			return Row{sqlvalue.Null}
		}
		return Row{sqlvalue.NewInt(int64(i))}
	})
	if z := cs.Zone(0, 0); !z.Tracked || z.HasNonNull || !z.HasNull {
		t.Fatalf("all-null block zone = %+v", z)
	}
	if z := cs.Zone(0, 1); !z.HasNonNull || z.HasNull {
		t.Fatalf("tail block zone = %+v", z)
	}
}

// TestColumnarCompact deletes a scattered subset spanning block boundaries
// and verifies that tombstones hide the rows while the zones stay
// conservative, and that the rewrite keeps survivor order, tightens the zones
// and shrinks the block count.
func TestColumnarCompact(t *testing.T) {
	n := 2*BlockRows + 100
	cs := mkStore(n, func(i int) Row {
		return Row{sqlvalue.NewInt(int64(i)), sqlvalue.NewString("p")}
	})
	// Drop all even ordinals: every block is partially invalidated.
	for i := 0; i < n; i += 2 {
		if !cs.Delete(i) {
			t.Fatalf("Delete(%d) found the row dead", i)
		}
	}
	if cs.Delete(0) || cs.Delete(n) {
		t.Fatal("Delete of a dead or out-of-range ordinal reported a live row")
	}
	wantKept := n / 2
	if cs.Len() != n || cs.Live() != wantKept || len(cs.Rows()) != wantKept {
		t.Fatalf("len %d live %d rows %d, want %d/%d/%d", cs.Len(), cs.Live(), len(cs.Rows()), n, wantKept, wantKept)
	}
	if got := cs.BlockDead(0); got != BlockRows/2 {
		t.Fatalf("BlockDead(0) = %d", got)
	}
	if lo, hi := cs.LiveRun(0, BlockRows); lo != 1 || hi != 2 {
		t.Fatalf("LiveRun(0, block) = [%d,%d)", lo, hi)
	}
	// The zone still covers the deleted minimum: a bound, not an exact range.
	if z := cs.Zone(0, 0); z.Min.Int() != 0 || z.Max.Int() != int64(BlockRows-1) {
		t.Fatalf("zone 0 after delete = [%s, %s]", z.Min, z.Max)
	}
	if !cs.rewriteDue() {
		t.Fatal("half the rows dead and no rewrite due")
	}
	old := cs
	cs = cs.Rewrite()
	if old.Len() != n || old.Live() != wantKept {
		t.Fatal("Rewrite changed its receiver")
	}
	if cs.Len() != wantKept || cs.Live() != wantKept {
		t.Fatalf("rewritten len %d live %d, want %d", cs.Len(), cs.Live(), wantKept)
	}
	if cs.NumBlocks() != (wantKept+BlockRows-1)/BlockRows {
		t.Fatalf("blocks = %d after rewrite", cs.NumBlocks())
	}
	for i := 0; i < wantKept; i++ {
		if got := cs.Value(i, 0).Int(); got != int64(2*i+1) {
			t.Fatalf("row %d = %d, want %d", i, got, 2*i+1)
		}
	}
	// Zones reflect the surviving values.
	if z := cs.Zone(0, 0); z.Min.Int() != 1 || z.Max.Int() != int64(2*BlockRows-1) {
		t.Fatalf("rebuilt zone 0 = [%s, %s]", z.Min, z.Max)
	}
	// Deleting everything and rewriting leaves an empty store.
	for i := 0; i < wantKept; i++ {
		cs.Delete(i)
	}
	cs = cs.Rewrite()
	if cs.Len() != 0 || cs.NumBlocks() != 0 || len(cs.Rows()) != 0 {
		t.Fatal("rewrite-to-empty failed")
	}
}

// TestColumnarEmpty: zero-row stores answer every aggregate query shape
// without panicking.
func TestColumnarEmpty(t *testing.T) {
	cs := NewColumnStore(3)
	if cs.Len() != 0 || cs.Live() != 0 || cs.NumBlocks() != 0 || cs.BlockDead(0) != 0 {
		t.Fatal("empty store not empty")
	}
	if rows := cs.Rows(); len(rows) != 0 {
		t.Fatalf("Rows() = %d", len(rows))
	}
	if cs.rewriteDue() || cs.Rewrite().Len() != 0 {
		t.Fatal("empty store wants a rewrite, or its rewrite has rows")
	}
}

// TestColumnarRefusesStrayKind: a column's first non-NULL value fixes its
// kind for good. A value of another kind is a program error and panics,
// naming both kinds; NULLs fit any column.
func TestColumnarRefusesStrayKind(t *testing.T) {
	cs := NewColumnStore(1)
	cs.AppendRow(Row{sqlvalue.Null})
	for i := 0; i < 10; i++ {
		cs.AppendRow(Row{sqlvalue.NewInt(int64(i))})
	}
	cs.AppendRow(Row{sqlvalue.Null})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "VARCHAR value appended to a BIGINT column") {
				t.Fatalf("stray kind: recovered %v", r)
			}
		}()
		cs.AppendRow(Row{sqlvalue.NewString("rogue")})
	}()
	if v := flat(cs, 0); v.Kind != sqlvalue.KindInt || len(v.Ints) != 12 || cs.Len() != 12 {
		t.Fatalf("after the refusal: kind %s, %d payloads, %d rows", v.Kind, len(v.Ints), cs.Len())
	}
	if z := cs.Zone(0, 0); !z.Tracked || z.Min.Int() != 0 || z.Max.Int() != 9 || !z.HasNull {
		t.Fatalf("zone = %+v", z)
	}
}

// TestColumnarFrozenCopyIsStable: a frozen copy keeps its length, its dead
// rows, its NULLs and its last block's zone while the live store appends
// (into the same bitmap words and the same block) and deletes.
func TestColumnarFrozenCopyIsStable(t *testing.T) {
	cs := mkStore(BlockRows-2, func(i int) Row {
		if i%7 == 0 {
			return Row{sqlvalue.Null}
		}
		return Row{sqlvalue.NewInt(int64(i % 100))}
	})
	cs.Delete(3)
	f := cs.Freeze()
	want := f.Rows()
	wantZone := f.Zone(0, 0)

	cs.AppendRow(Row{sqlvalue.Null})          // a NULL bit in a word f covers
	cs.AppendRow(Row{sqlvalue.NewInt(5000)})  // widens block 0's zone, fills the block
	cs.AppendRow(Row{sqlvalue.NewInt(-5000)}) // opens block 1
	cs.Delete(4)
	cs.Delete(BlockRows)

	if f.Len() != BlockRows-2 || f.Live() != BlockRows-3 || f.IsDead(4) || !f.IsDead(3) {
		t.Fatalf("frozen copy moved: len %d live %d", f.Len(), f.Live())
	}
	got := f.Rows()
	if len(got) != len(want) {
		t.Fatalf("frozen copy has %d rows, had %d", len(got), len(want))
	}
	for i := range got {
		if !sqlvalue.Identical(got[i][0], want[i][0]) {
			t.Fatalf("frozen row %d = %s, was %s", i, got[i][0], want[i][0])
		}
	}
	if z := f.Zone(0, 0); !sqlvalue.Identical(z.Max, wantZone.Max) || z.Max.Int() != 99 {
		t.Fatalf("frozen zone max = %s", z.Max)
	}
	if z := cs.Zone(0, 0); z.Max.Int() != 5000 || !z.HasNull {
		t.Fatalf("live zone 0 = %+v", z)
	}
	if z := cs.Zone(0, 1); z.Min.Int() != -5000 {
		t.Fatalf("live zone 1 = %+v", z)
	}
	if cs.Live() != BlockRows-2 || !cs.Col(0).IsNull(BlockRows-2) {
		t.Fatalf("live store: live %d", cs.Live())
	}
}

// TestColumnarAppendRowKey: the store-side keying must produce exactly the
// bytes of Value.AppendKey joined by 0x1f, including for NULLs and strings.
func TestColumnarAppendRowKey(t *testing.T) {
	cs := NewColumnStore(3)
	r := Row{sqlvalue.NewInt(-7), sqlvalue.Null, sqlvalue.NewString("a\x1fb")}
	cs.AppendRow(r)
	var want []byte
	for _, c := range []int{0, 1, 2} {
		want = r[c].AppendKey(want)
		want = append(want, '\x1f')
	}
	got := cs.AppendRowKey(nil, 0, []int{0, 1, 2})
	if string(got) != string(want) {
		t.Fatalf("AppendRowKey = %q, want %q", got, want)
	}
}

// flat returns column c's rows as one run of arrays, its null words through
// the last that holds a NULL: the store's payloads and NULLs, whatever blocks
// hold them.
func flat(cs *ColumnStore, c int) Arrays {
	v := cs.Col(c)
	a := Arrays{Kind: v.Kind}
	for b := 0; b < cs.NumBlocks(); b++ {
		blk, rows := v.Block(b), min(BlockRows, cs.Len()-b*BlockRows)
		switch v.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			a.Ints = append(a.Ints, blk.Ints[:rows]...)
		case sqlvalue.KindFloat:
			a.Floats = append(a.Floats, blk.Floats[:rows]...)
		case sqlvalue.KindString:
			a.Strs = append(a.Strs, blk.Strs[:rows]...)
		}
		for j := range rows {
			if bitSet(blk.Nulls, j) {
				a.Nulls = setBit(a.Nulls, b*BlockRows+j)
			}
		}
	}
	return a
}

// rewriteRowByRow is what Rewrite must equal: the live rows appended one by
// one to a fresh store.
func rewriteRowByRow(cs *ColumnStore) *ColumnStore {
	out := NewColumnStore(cs.NumCols())
	row := make(Row, cs.NumCols())
	for i := 0; i < cs.Len(); i++ {
		if !cs.IsDead(i) {
			cs.MaterializeInto(row, i)
			out.AppendRow(row)
		}
	}
	return out
}

// sameValue is exact equality: a float compares by its bits, so -0 is not 0
// and NaN is NaN.
func sameValue(a, b sqlvalue.Value) bool {
	if a.Kind() == sqlvalue.KindFloat && b.Kind() == sqlvalue.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Kind() == b.Kind() && sqlvalue.Identical(a, b)
}

// TestRewriteMatchesRowByRow: the column-at-a-time Rewrite builds the store
// appending the live rows one by one builds — kinds, payloads, null bitmap
// and every block's zone, the partial tail included — over every kind, NaN
// and signed zeros, a column that only ever held NULL and one whose live
// values are all NULL, with tombstones in runs and scattered.
func TestRewriteMatchesRowByRow(t *testing.T) {
	floats := []float64{1.5, math.Copysign(0, -1), 0, -2, math.Inf(1), math.NaN(), 3}
	strs := []string{"b", "", "a", "ab"}
	const n = 12*BlockRows + 37
	cs := mkStore(n, func(i int) Row {
		v := func(every int, x sqlvalue.Value) sqlvalue.Value {
			if i%every == every-1 {
				return sqlvalue.Null
			}
			return x
		}
		f := floats[i%len(floats)]
		if i >= 2*BlockRows && math.IsNaN(f) {
			f = 7 // NaNs only in the first blocks: later ones stay tracked
		}
		return Row{
			sqlvalue.NewInt(int64(i*7919%1000 - 500)),
			v(5, sqlvalue.NewDate(int64(i%400))),
			v(4, sqlvalue.NewBool(i%3 == 0)),
			v(6, sqlvalue.NewFloat(f)),
			v(9, sqlvalue.NewString(strs[i%len(strs)])),
			sqlvalue.Null,
			v(2, sqlvalue.NewInt(int64(i))), // NULL on odd rows, the only ones left live
			sqlvalue.NewFloat([]float64{0, math.Copysign(0, -1)}[i/50%2]), // equal extremes of either sign
		}
	})
	for i := 0; i < n; i++ {
		if i%2 == 0 || i%3 == 1 || i >= BlockRows/2 && i < BlockRows+100 {
			cs.Delete(i)
		}
	}
	for _, st := range []*ColumnStore{cs, NewColumnStore(2)} {
		got, want := st.Rewrite(), rewriteRowByRow(st)
		if st == cs && (got.NumBlocks() < 3 || got.Col(6).Kind != sqlvalue.KindNull ||
			got.Zone(3, 0).Tracked || !got.Zone(3, got.NumBlocks()-1).Tracked) {
			t.Fatalf("the fixture lost a case: %d blocks, column 6 %s, float zones tracked %t and %t", got.NumBlocks(),
				got.Col(6).Kind, got.Zone(3, 0).Tracked, got.Zone(3, got.NumBlocks()-1).Tracked)
		}
		if got.Len() != want.Len() || got.Live() != want.Live() || got.NumBlocks() != want.NumBlocks() {
			t.Fatalf("rewrite has %d/%d rows in %d blocks, row by row %d/%d in %d",
				got.Len(), got.Live(), got.NumBlocks(), want.Len(), want.Live(), want.NumBlocks())
		}
		for c := 0; c < st.NumCols(); c++ {
			g, w := flat(got, c), flat(want, c)
			if g.Kind != w.Kind || !slices.Equal(g.Ints, w.Ints) || !slices.Equal(g.Strs, w.Strs) ||
				!slices.Equal(g.Nulls, w.Nulls) || len(g.Floats) != len(w.Floats) {
				t.Fatalf("column %d: rewrite %+v, row by row %+v", c, g, w)
			}
			for i := range g.Floats {
				if math.Float64bits(g.Floats[i]) != math.Float64bits(w.Floats[i]) {
					t.Fatalf("column %d row %d: %v, row by row %v", c, i, g.Floats[i], w.Floats[i])
				}
			}
			for b := 0; b <= got.NumBlocks(); b++ { // b == NumBlocks: the empty tail of a full last block
				gz, wz := got.Zone(c, b), want.Zone(c, b)
				if gz.Tracked != wz.Tracked || gz.HasNull != wz.HasNull || gz.HasNonNull != wz.HasNonNull ||
					!sameValue(gz.Min, wz.Min) || !sameValue(gz.Max, wz.Max) {
					t.Fatalf("column %d block %d: zone %+v, row by row %+v", c, b, gz, wz)
				}
			}
		}
	}
}

// foldBoxed is the zone fold AppendRow made before it read typed payloads:
// two sqlvalue.Compare calls per value. TestTypedZoneFoldMatchesBoxed holds
// foldLast to it.
func foldBoxed(z *Zone, v sqlvalue.Value) {
	switch {
	case v.IsNull():
		z.HasNull = true
	case v.Kind() == sqlvalue.KindFloat && math.IsNaN(v.Float()):
		z.Tracked = false
	case !z.HasNonNull:
		z.Min, z.Max, z.HasNonNull = v, v, true
	default:
		if c, _ := sqlvalue.Compare(v, z.Min); c < 0 {
			z.Min = v
		}
		if c, _ := sqlvalue.Compare(v, z.Max); c > 0 {
			z.Max = v
		}
	}
}

// TestTypedZoneFoldMatchesBoxed: on random rows of every kind — NULLs, NaN,
// ±0 and ±Inf among the floats, blocks that start NULL — the zones AppendRow
// folds from typed payloads equal the boxed fold's, bit for bit, in every
// block and the partial tail.
func TestTypedZoneFoldMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	floats := []float64{math.Copysign(0, -1), 0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN()}
	pick := func(x sqlvalue.Value) sqlvalue.Value {
		if rng.Intn(5) == 0 {
			return sqlvalue.Null
		}
		return x
	}
	const n = 5*BlockRows + 77
	rows := make([]Row, n)
	for i := range rows {
		f := floats[rng.Intn(len(floats))]
		if rng.Intn(20) != 0 && math.IsNaN(f) {
			f = float64(rng.Intn(100)) // NaN rare: most blocks stay tracked
		}
		rows[i] = Row{
			pick(sqlvalue.NewInt(rng.Int63n(2000) - 1000)),
			pick(sqlvalue.NewDate(rng.Int63n(400))),
			pick(sqlvalue.NewBool(rng.Intn(2) == 0)),
			pick(sqlvalue.NewFloat(f)),
			pick(sqlvalue.NewString(string(rune('a' + rng.Intn(26))))),
		}
	}
	cs := NewColumnStore(5)
	for _, r := range rows {
		cs.AppendRow(r)
	}
	for c := range 5 {
		for b := 0; b < cs.NumBlocks(); b++ {
			want := Zone{Tracked: true}
			for _, r := range rows[b*BlockRows : min((b+1)*BlockRows, n)] {
				if want.Tracked {
					foldBoxed(&want, r[c])
				}
			}
			got := cs.Zone(c, b)
			if got.Tracked != want.Tracked || got.HasNull != want.HasNull || got.HasNonNull != want.HasNonNull ||
				!sameValue(got.Min, want.Min) || !sameValue(got.Max, want.Max) {
				t.Fatalf("column %d block %d: typed fold %+v, boxed fold %+v", c, b, got, want)
			}
		}
	}
}

// TestUpdateInPlaceCopiesOneBlock: writing one group's COUNT and SUM cells in
// a published view of eleven blocks clones, per written column, the block
// the group lies in and the column's block list, and nothing else: the key
// index is not touched, no other block is copied. A clone of every written
// column (88 KB each) fails it. With no snapshot pinned the clone copies
// into a block an earlier write retired, so from the second write on no
// payload array is allocated; with one pinned on each epoch, every clone
// allocates, as the retired blocks are still read.
func TestUpdateInPlaceCopiesOneBlock(t *testing.T) {
	const groups = 10*BlockRows + 5
	db := NewDatabase(testCatalog(t))
	rows := make([]Row, groups)
	for g := range rows {
		rows[g] = Row{sqlvalue.NewInt(int64(g)), sqlvalue.NewInt(1), sqlvalue.NewFloat(float64(g))}
	}
	mv, err := db.PutView("v", StoreOf(3, rows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.BuildIndex([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	st := mv.Store()
	// Per written column: one block's payloads and header, the list, and
	// room for the list of retired blocks to grow.
	limit := 2 * (BlockRows*8 + uint64(unsafe.Sizeof(Block{})) + uint64(st.NumBlocks())*(8+uint64(unsafe.Sizeof(retiredBlock{}))))
	rng := rand.New(rand.NewSource(3))
	for _, pinned := range []bool{false, true} {
		for round := 0; round < 5; round++ {
			db.Commit() // every block is published again
			if pinned {
				defer db.Snapshot().Release()
			}
			g := rng.Intn(groups)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			mv.SetInt(g, 1, st.Int(g, 1)+1)
			mv.SetFloat(g, 2, st.Float(g, 2)+0.5)
			err := mv.PatchIndexes()
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			switch got := m1.TotalAlloc - m0.TotalAlloc; {
			case round == 0: // grows the list of stale zones and retires the first blocks
			case got > limit:
				t.Fatalf("pinned %t, round %d: updating group %d allocated %d bytes, want at most %d (a block and the list per written column)", pinned, round, g, got, limit)
			case !pinned && got >= BlockRows*8:
				t.Fatalf("round %d: updating group %d allocated %d bytes, want less than a payload array (a retired block reused)", round, g, got)
			case pinned && got < BlockRows*8:
				t.Fatalf("round %d: updating group %d allocated %d bytes with a snapshot pinned, want a clone", round, g, got)
			}
			if z := st.Zone(2, g/BlockRows); z.Max.Float() < st.Float(g, 2) {
				t.Fatalf("round %d: the written block's zone %+v misses %v", round, z, st.Float(g, 2))
			}
		}
	}
	if mv.Store() != st || st.Live() != groups {
		t.Fatal("an in-place update rewrote the view or tombstoned a group")
	}
}
