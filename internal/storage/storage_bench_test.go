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
