package storage_test

import (
	"runtime"
	"testing"
	"time"

	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// What one statement's base-table write costs on a published lineitem, at
// 60 k rows (SF 0.01, the benchmark's write_maintain size) and 600 k: the
// time and — the figure the design is about — the bytes allocated, which must
// not grow with the table. Each iteration leaves the table as it found it,
// and every statement is followed by the Commit that publishes it, so each
// write is the first after a publish: whatever a frozen copy shares gets
// cloned here if anything does.

const benchMarker = 10_000_000 // order keys above every generated one

var lineitemSizes = []struct {
	name string
	sf   float64
}{{"60k", 0.01}, {"600k", 0.1}}

// lineitemFixture is a published lineitem and the rows one INSERT adds.
type lineitemFixture struct {
	db   *storage.Database
	t    *storage.Table
	rows []storage.Row
}

func newLineitemFixture(tb testing.TB, sf float64) *lineitemFixture {
	tb.Helper()
	db, err := tpch.NewDatabase(sf, 1)
	if err != nil {
		tb.Fatal(err)
	}
	db.Commit()
	f := &lineitemFixture{db: db, t: db.Table("lineitem"), rows: make([]storage.Row, 10)}
	for i := range f.rows {
		f.rows[i] = storage.Row{
			sqlvalue.NewInt(benchMarker), sqlvalue.NewInt(1 + int64(i)), sqlvalue.NewInt(1), sqlvalue.NewInt(1 + int64(i)),
			sqlvalue.NewFloat(float64(1 + i)), sqlvalue.NewFloat(1000.25), sqlvalue.NewFloat(0.04), sqlvalue.NewFloat(0.02),
			sqlvalue.NewString("N"), sqlvalue.NewString("O"),
			sqlvalue.NewDateYMD(1995, time.March, 7), sqlvalue.NewDateYMD(1995, time.April, 1), sqlvalue.NewDateYMD(1995, time.April, 10),
			sqlvalue.NewString("NONE"), sqlvalue.NewString("AIR"), sqlvalue.NewString("bench marker"),
		}
	}
	return f
}

// insert is one ten-row INSERT statement and its publish.
func (f *lineitemFixture) insert(tb testing.TB) {
	for _, r := range f.rows {
		if err := f.t.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	f.db.Commit()
}

// deleteTail is one DELETE of the last INSERT's rows, found by their
// ordinals the way the compiled predicate hands them over, and its publish.
func (f *lineitemFixture) deleteTail(tb testing.TB) {
	ords := make([]int, len(f.rows))
	for i := range ords {
		ords[i] = f.t.Store().Len() - len(ords) + i
	}
	if deleted, err := f.t.DeleteOrds(ords); err != nil || deleted.Len() != len(ords) {
		tb.Fatalf("deleted %v: %v", deleted, err)
	}
	f.db.Commit()
}

// BenchmarkDeleteTail: delete the rows an INSERT left at the tail.
func BenchmarkDeleteTail(b *testing.B) {
	for _, size := range lineitemSizes {
		b.Run(size.name, func(b *testing.B) {
			f := newLineitemFixture(b, size.sf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.insert(b)
				b.StartTimer()
				f.deleteTail(b)
			}
		})
	}
}

// BenchmarkInsertAfterDelete: the ten-row INSERT that follows a DELETE.
func BenchmarkInsertAfterDelete(b *testing.B) {
	for _, size := range lineitemSizes {
		b.Run(size.name, func(b *testing.B) {
			f := newLineitemFixture(b, size.sf)
			f.insert(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.deleteTail(b)
				b.StartTimer()
				f.insert(b)
			}
		})
	}
}

// TestWriteAllocationIsFlat bounds what each of the two statements allocates
// on the published 60 k-row table: well under one copy of a single lineitem
// column (60 k × 8 B = 480 KB), where copying the table was 13 MB.
func TestWriteAllocationIsFlat(t *testing.T) {
	f := newLineitemFixture(t, 0.01)
	allocated := func(stmt func(testing.TB)) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stmt(t)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	const limit = 256 << 10
	for round := 0; round < 5; round++ {
		ins, del := allocated(f.insert), allocated(f.deleteTail)
		if round == 0 {
			continue // the first INSERT may grow a column array; growth is amortised
		}
		if ins > limit || del > limit {
			t.Fatalf("round %d: INSERT allocated %d bytes, DELETE %d; limit %d", round, ins, del, limit)
		}
		t.Logf("round %d: INSERT %d bytes, DELETE %d bytes", round, ins, del)
	}
}
