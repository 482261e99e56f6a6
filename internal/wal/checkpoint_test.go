package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"matview/internal/shell"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// fixtureStore holds n rows of every kind — NULLs, NaN, ±0, ±Inf, empty
// strings, BOOLEAN and DATE, an all-NULL column — with every even row
// deleted. Column 6 is NULL on every odd row, so its live rows are all NULL.
// NaN appears only in the first block, so later float blocks stay tracked.
func fixtureStore(n int) *storage.ColumnStore {
	floats := []float64{1.5, math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), math.NaN(), -2}
	strs := []string{"b", "", "a", "ab"}
	cs := storage.NewColumnStore(7)
	for i := 0; i < n; i++ {
		null := func(every int, v sqlvalue.Value) sqlvalue.Value {
			if i%every == every-1 {
				return sqlvalue.Null
			}
			return v
		}
		f := floats[i%len(floats)]
		if i >= storage.BlockRows && math.IsNaN(f) {
			f = 7
		}
		cs.AppendRow(storage.Row{
			sqlvalue.NewInt(int64(i*7919%1000 - 500)),
			null(5, sqlvalue.NewDate(int64(i%400))),
			null(4, sqlvalue.NewBool(i%3 == 0)),
			null(6, sqlvalue.NewFloat(f)),
			null(9, sqlvalue.NewString(strs[i%len(strs)])),
			sqlvalue.Null,
			null(2, sqlvalue.NewInt(int64(i))),
		})
	}
	for i := 0; i < n; i += 2 {
		cs.Delete(i)
	}
	return cs
}

// fixtureImage is a checkpoint of two tables and a view over fixtureStore(n).
func fixtureImage(n int) []byte {
	ck := &checkpointData{epoch: 9, tables: []checkpointRelation{
		{name: "t", indexes: []storage.IndexDef{{Cols: []int{0}}, {Cols: []int{1, 4}, Unique: true}}, store: fixtureStore(n)},
		{name: "empty", store: storage.NewColumnStore(2)},
	}, views: []checkpointView{{checkpointRelation{name: "v", store: fixtureStore(n / 2)}, "select 1", 2}}}
	var buf bytes.Buffer
	if err := ck.write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func sameValue(a, b sqlvalue.Value) bool {
	if a.Kind() == sqlvalue.KindFloat && b.Kind() == sqlvalue.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Kind() == b.Kind() && sqlvalue.Identical(a, b)
}

// flat returns column c's rows as one run of arrays, its null words through
// the last that holds a NULL, whatever blocks hold them.
func flat(cs *storage.ColumnStore, c int) storage.Arrays {
	v := cs.Col(c)
	a := storage.Arrays{Kind: v.Kind}
	for b := 0; b < cs.NumBlocks(); b++ {
		blk, rows := v.Block(b), min(storage.BlockRows, cs.Len()-b*storage.BlockRows)
		switch v.Kind {
		case sqlvalue.KindInt, sqlvalue.KindDate, sqlvalue.KindBool:
			a.Ints = append(a.Ints, blk.Ints[:rows]...)
		case sqlvalue.KindFloat:
			a.Floats = append(a.Floats, blk.Floats[:rows]...)
		case sqlvalue.KindString:
			a.Strs = append(a.Strs, blk.Strs[:rows]...)
		}
		for j := range rows {
			if i := b*storage.BlockRows + j; v.IsNull(i) {
				for len(a.Nulls) <= i>>6 {
					a.Nulls = append(a.Nulls, 0)
				}
				a.Nulls[i>>6] |= 1 << (i & 63)
			}
		}
	}
	return a
}

// storeDiff describes the first difference between two stores — lengths,
// kinds, payload bits, null bitmaps or any block's zone — or is "".
func storeDiff(a, b *storage.ColumnStore) string {
	if a.NumCols() != b.NumCols() || a.Len() != b.Len() || a.Live() != b.Live() {
		return fmt.Sprintf("%d columns, %d/%d rows vs %d columns, %d/%d rows",
			a.NumCols(), a.Live(), a.Len(), b.NumCols(), b.Live(), b.Len())
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for c := 0; c < a.NumCols(); c++ {
		x, y := flat(a, c), flat(b, c)
		if x.Kind != y.Kind || !slices.Equal(x.Ints, y.Ints) || !slices.EqualFunc(x.Floats, y.Floats, sameBits) ||
			!slices.Equal(x.Strs, y.Strs) || !slices.Equal(x.Nulls, y.Nulls) {
			return fmt.Sprintf("column %d: %+v vs %+v", c, x, y)
		}
		for blk := 0; blk <= a.NumBlocks(); blk++ { // blk == NumBlocks: the empty tail of a full last block
			za, zb := a.Zone(c, blk), b.Zone(c, blk)
			if za.Tracked != zb.Tracked || za.HasNull != zb.HasNull || za.HasNonNull != zb.HasNonNull ||
				!sameValue(za.Min, zb.Min) || !sameValue(za.Max, zb.Max) {
				return fmt.Sprintf("column %d block %d: zone %+v vs %+v", c, blk, za, zb)
			}
		}
	}
	return ""
}

// ckptDiff describes the first difference between two decoded checkpoints.
func ckptDiff(a, b *checkpointData) string {
	if a.epoch != b.epoch || len(a.tables) != len(b.tables) || len(a.views) != len(b.views) {
		return fmt.Sprintf("epoch %d, %d tables, %d views vs epoch %d, %d tables, %d views",
			a.epoch, len(a.tables), len(a.views), b.epoch, len(b.tables), len(b.views))
	}
	rel := func(x, y checkpointRelation) string {
		if x.name != y.name || !slices.EqualFunc(x.indexes, y.indexes, func(p, q storage.IndexDef) bool {
			return p.Unique == q.Unique && slices.Equal(p.Cols, q.Cols)
		}) {
			return fmt.Sprintf("%q %v vs %q %v", x.name, x.indexes, y.name, y.indexes)
		}
		if d := storeDiff(x.store, y.store); d != "" {
			return x.name + ": " + d
		}
		return ""
	}
	for i := range a.tables {
		if d := rel(a.tables[i], b.tables[i]); d != "" {
			return d
		}
	}
	for i, v := range a.views {
		w := b.views[i]
		if v.defSQL != w.defSQL || v.health != w.health {
			return fmt.Sprintf("view %q: %q health %d vs %q health %d", v.name, v.defSQL, v.health, w.defSQL, w.health)
		}
		if d := rel(v.checkpointRelation, w.checkpointRelation); d != "" {
			return d
		}
	}
	return ""
}

// TestCheckpointImageRoundTrip: a relation's image loads back as the
// Rewrite of the store it was written from — kinds, payload bits, null
// bitmaps and every block's zone, the untracked NaN block included — for a
// store with tombstones, one without, and an empty one.
func TestCheckpointImageRoundTrip(t *testing.T) {
	cs := fixtureStore(4*storage.BlockRows + 75)
	want := cs.Rewrite()
	if want.NumBlocks() < 2 || want.Col(5).Kind != sqlvalue.KindNull || want.Col(6).Kind != sqlvalue.KindNull ||
		want.Zone(3, 0).Tracked || !want.Zone(3, 1).Tracked {
		t.Fatalf("the fixture lost a case: %d blocks, columns 5 and 6 %s and %s, float zones tracked %t and %t",
			want.NumBlocks(), want.Col(5).Kind, want.Col(6).Kind, want.Zone(3, 0).Tracked, want.Zone(3, 1).Tracked)
	}
	for _, src := range []*storage.ColumnStore{cs, want, storage.NewColumnStore(3)} {
		ck := &checkpointData{epoch: 1, tables: []checkpointRelation{{name: "t", store: src}}}
		var buf bytes.Buffer
		if err := ck.write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := parseCheckpoint(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if d := storeDiff(got.tables[0].store, src.Rewrite()); d != "" {
			t.Fatalf("loaded image differs from the written store's Rewrite: %s", d)
		}
	}
}

// TestCheckpointFormatUnchanged: testdata/checkpoint-cde42ad.ckpt is
// fixtureImage(2*BlockRows+150) as the store wrote it at commit cde42ad,
// when a column was one flat array. It loads into the stores the fixture
// holds today — kinds, payload bits, null words, every block's zone — and a
// store that now keeps its columns in blocks writes it back byte for byte,
// as it writes the fixture.
func TestCheckpointFormatUnchanged(t *testing.T) {
	const n = 2*storage.BlockRows + 150
	old, err := os.ReadFile("testdata/checkpoint-cde42ad.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := parseCheckpoint(old)
	if err != nil {
		t.Fatal(err)
	}
	if ck.tables[0].store.NumBlocks() < 2 || ck.tables[0].store.Col(6).Kind != sqlvalue.KindNull {
		t.Fatalf("the image lost a case: %d blocks, column 6 %s", ck.tables[0].store.NumBlocks(), ck.tables[0].store.Col(6).Kind)
	}
	for _, c := range []struct {
		got, want *storage.ColumnStore
	}{
		{ck.tables[0].store, fixtureStore(n).Rewrite()},
		{ck.tables[1].store, storage.NewColumnStore(2)},
		{ck.views[0].store, fixtureStore(n / 2).Rewrite()},
	} {
		if d := storeDiff(c.got, c.want); d != "" {
			t.Fatalf("the image loads as %s", d)
		}
	}
	var buf bytes.Buffer
	if err := ck.write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), old) {
		t.Fatal("the loaded image writes back to other bytes")
	}
	if !bytes.Equal(fixtureImage(n), old) {
		t.Fatal("the fixture writes to other bytes than it did")
	}
}

// TestRestoreChecksImageAgainstCatalog: a table image adopts only after
// Insert's checks, a column at a time — column count, each kind the declared
// type or KindNull, no NULL in a NOT NULL column.
func TestRestoreChecksImageAgainstCatalog(t *testing.T) {
	region := func(rows ...storage.Row) *storage.ColumnStore {
		cs := storage.NewColumnStore(len(rows[0]))
		for _, r := range rows {
			cs.AppendRow(r)
		}
		return cs
	}
	key, name := sqlvalue.NewInt(1), sqlvalue.NewString("ASIA")
	for _, c := range []struct {
		what  string
		store *storage.ColumnStore
		ok    bool
	}{
		{"the catalog's shape, a nullable column all NULL", region(storage.Row{key, name, sqlvalue.Null}), true},
		{"a column short", region(storage.Row{key, name}), false},
		{"a column over", region(storage.Row{key, name, sqlvalue.Null, key}), false},
		{"a string key", region(storage.Row{name, name, name}), false},
		{"a float comment", region(storage.Row{key, name, sqlvalue.NewFloat(1)}), false},
		{"a NULL key", region(storage.Row{key, name, name}, storage.Row{sqlvalue.Null, name, name}), false},
		{"an all-NULL name", region(storage.Row{key, sqlvalue.Null, name}), false},
	} {
		ck := &checkpointData{tables: []checkpointRelation{{name: "region", store: c.store}}}
		if _, err := rebuildTables(ck, tpch.NewCatalog(0.001)); (err == nil) != c.ok {
			t.Errorf("%s: restore error %v, want accepted %t", c.what, err, c.ok)
		}
	}
}

// FuzzCheckpointDecode runs the decoder beneath the CRC on arbitrary bytes:
// the harness frames them with the magic and a valid CRC. A decode never
// panics and allocates at most a constant multiple of its input — no count
// is trusted past the bytes that could hold it — and what decodes writes
// back to an image that decodes to equal stores.
func FuzzCheckpointDecode(f *testing.F) {
	img := fixtureImage(70)
	f.Add(img[len(ckptMagic) : len(img)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append([]byte(ckptMagic), body...)
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := parseCheckpoint(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ck.write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := parseCheckpoint(buf.Bytes())
		if err != nil {
			t.Fatalf("a written image does not decode: %v", err)
		}
		if d := ckptDiff(ck, again); d != "" {
			t.Fatalf("rewritten image decodes differently: %s", d)
		}
	})
}

// TestRestoredViewKeepsCheckpointStore: recovery hands a checkpointed view's
// store to the view as it decoded, not re-appended row by row: the view
// holds that very store, in the checkpoint's row order (a NULL key first,
// keys falling — not the clustered order Build gives) with its column kinds,
// equal to a second decode of the same image. A store whose column count is
// not the definition's is refused.
func TestRestoredViewKeepsCheckpointStore(t *testing.T) {
	const def = `select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey`
	rows := []storage.Row{{sqlvalue.Null, sqlvalue.NewInt(2), sqlvalue.NewFloat(5.5)}}
	for k := int64(30); k > 0; k-- {
		rows = append(rows, storage.Row{sqlvalue.NewInt(k), sqlvalue.NewInt(k), sqlvalue.NewFloat(float64(k) / 4)})
	}
	image := func(cs *storage.ColumnStore) []byte {
		ck := &checkpointData{epoch: 1, views: []checkpointView{{checkpointRelation{name: "v", store: cs}, def, 0}}}
		var buf bytes.Buffer
		if err := ck.write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	restore := func(img []byte) (*checkpointData, *storage.Database, error) {
		ck, err := parseCheckpoint(img)
		if err != nil {
			t.Fatal(err)
		}
		db, err := tpch.NewDatabase(0.001, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ck, db, rebuildViews(ck, db, shell.NewSession(db))
	}

	img := image(storage.StoreOf(3, rows))
	ck, db, err := restore(img)
	if err != nil {
		t.Fatal(err)
	}
	got := db.View("v").Store()
	if got != ck.views[0].store {
		t.Fatal("the view holds a copy of the checkpoint's store")
	}
	again, err := parseCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if d := storeDiff(got, again.views[0].store); d != "" {
		t.Fatalf("the restored view differs from the image: %s", d)
	}
	for c, k := range []sqlvalue.Kind{sqlvalue.KindInt, sqlvalue.KindInt, sqlvalue.KindFloat} {
		if got.Col(c).Kind != k {
			t.Fatalf("column %d restored as %s, want %s", c, got.Col(c).Kind, k)
		}
	}
	if !got.Value(0, 0).IsNull() || got.Value(1, 0).Int() != 30 || got.Value(30, 0).Int() != 1 {
		t.Fatalf("rows restored out of the checkpoint's order: %v, %v, %v", got.RowAt(0), got.RowAt(1), got.RowAt(30))
	}

	short := make([]storage.Row, len(rows))
	for i, r := range rows {
		short[i] = r[:2]
	}
	if _, _, err := restore(image(storage.StoreOf(2, short))); err == nil {
		t.Fatal("a two-column store restored into a three-output view")
	}
}
