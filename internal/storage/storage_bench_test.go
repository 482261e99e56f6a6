package storage

import (
	"fmt"
	"testing"

	"matview/internal/sqlvalue"
)

// benchView builds a materialized view with n rows keyed by (int, string) and
// a non-unique index over both key columns — the shape the maintainer probes
// on every delta row.
func benchView(n int) *MaterializedView {
	mv := newView("bench_mv", NewColumnStore(3), nil)
	rows := make([]Row, n)
	for i := 0; i < n; i++ {
		rows[i] = Row{
			sqlvalue.NewInt(int64(i % 1000)),
			sqlvalue.NewString(fmt.Sprintf("grp-%03d", i%250)),
			sqlvalue.NewFloat(float64(i)),
		}
	}
	mv.Append(rows)
	if _, err := mv.BuildIndex([]int{0, 1}, false); err != nil {
		panic(err)
	}
	return mv
}

// BenchmarkIndexProbe measures a point lookup through the hash index. The
// probe path builds its key into a stack buffer via Value.AppendKey, so a
// steady-state probe should not allocate at all.
func BenchmarkIndexProbe(b *testing.B) {
	mv := benchView(100_000)
	idx := mv.LookupIndex([]int{0, 1})
	if idx == nil {
		b.Fatal("index missing")
	}
	probe := Row{sqlvalue.NewInt(123), sqlvalue.NewString("grp-123")}
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		hits += len(idx.Probe(probe))
	}
	if hits == 0 {
		b.Fatal("probe found nothing")
	}
}

// BenchmarkAppendRowKey measures store-side keying (used for index builds and
// bag-subtract matching); the destination buffer is reused across rows.
func BenchmarkAppendRowKey(b *testing.B) {
	mv := benchView(100_000)
	st := mv.Store()
	cols := []int{0, 1}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = st.AppendRowKey(buf[:0], i%st.Len(), cols)
	}
	_ = buf
}

// BenchmarkRewrite measures compacting a lineitem-shaped store — 100 000
// rows of integers, dates, doubles and strings, some NULL — after every
// third row was deleted: what a writer holds its lock for when a table's
// tombstones come due.
func BenchmarkRewrite(b *testing.B) {
	const n = 100_000
	cs := NewColumnStore(8)
	flags := []string{"A", "N", "R"}
	for i := 0; i < n; i++ {
		disc := sqlvalue.NewFloat(float64(i%11) / 100)
		if i%17 == 0 {
			disc = sqlvalue.Null
		}
		cs.AppendRow(Row{
			sqlvalue.NewInt(int64(i / 4)), sqlvalue.NewInt(int64(i % 2000)), sqlvalue.NewInt(int64(i%7 + 1)),
			sqlvalue.NewFloat(float64(i%50 + 1)), disc, sqlvalue.NewString(flags[i%3]),
			sqlvalue.NewDate(int64(8000 + i%2500)), sqlvalue.NewString(fmt.Sprintf("comment %d", i%977)),
		})
	}
	for i := 0; i < n; i += 3 {
		cs.Delete(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := cs.Rewrite(); out.Len() != cs.Live() {
			b.Fatalf("rewrite kept %d of %d live rows", out.Len(), cs.Live())
		}
	}
}
