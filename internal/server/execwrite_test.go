package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/storage"
	"matview/internal/tpch"
	"matview/internal/wal"
)

// writeFixture is the stack the benchmark's write_maintain workload drives: a
// durable server (fsync per commit) over SF 0.01 with eight maintained views
// and a view index, and the writer's statement script — two 10-row INSERTs
// into lineitem on fresh order keys, then one DELETE of the two oldest keys.
type writeFixture struct {
	srv  *Server
	h    http.Handler
	call *reusedCall
	rng  *rand.Rand
	n    int // statements generated
}

const writeMarkerBase = 10_000_000

func newWriteFixture(tb testing.TB) *writeFixture {
	tb.Helper()
	res, err := wal.Open(tb.TempDir(), wal.Options{
		NewCatalog: func() *catalog.Catalog { return tpch.NewCatalog(0.01) },
		Bootstrap:  func() (*storage.Database, error) { return tpch.NewDatabase(0.01, 1) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CheckpointInterval = -1
	f := &writeFixture{srv: NewRecovering(cfg), call: newReusedCall("/exec"), rng: rand.New(rand.NewSource(1))}
	f.srv.Adopt(res)
	f.h = f.srv.Handler()
	tb.Cleanup(func() { f.srv.Shutdown(context.Background()) })
	for _, ddl := range []string{
		"create view wm_part with schemabinding as select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_partkey",
		"create unique index wm_part_idx on wm_part (l_partkey)",
		"create view wm_supp with schemabinding as select l_suppkey, count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem group by l_suppkey",
		"create view wm_flag with schemabinding as select l_returnflag, l_linestatus, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_returnflag, l_linestatus",
		"create view wm_mode with schemabinding as select l_shipmode, count_big(*) as cnt, sum(l_extendedprice * (1 - l_discount)) as revenue from lineitem group by l_shipmode",
		"create view wm_cust with schemabinding as select o_custkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem, orders where l_orderkey = o_orderkey group by o_custkey",
		"create view wm_prio with schemabinding as select o_orderpriority, count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem, orders where l_orderkey = o_orderkey group by o_orderpriority",
		"create view wm_small with schemabinding as select l_orderkey, l_linenumber, l_partkey, l_quantity from lineitem where l_quantity <= 3",
		"create view wm_ocust with schemabinding as select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey",
	} {
		f.exec(tb, ddl)
	}
	return f
}

func (f *writeFixture) exec(tb testing.TB, sql string) {
	tb.Helper()
	if code, body := f.call.do(f.h, mustJSON(&ExecRequest{SQL: sql})); code != http.StatusOK {
		tb.Fatalf("%.60s…: status %d: %s", sql, code, body)
	}
}

// next returns the script's next statement. The INSERT text is the
// benchmark's: an integer for DOUBLE l_quantity and quoted strings for the
// three DATE columns, which the parser coerces to the catalog types.
func (f *writeFixture) next() string {
	defer func() { f.n++ }()
	cycle := f.n / 3
	if f.n%3 == 2 {
		lo := writeMarkerBase + 2*cycle
		return fmt.Sprintf("delete from lineitem where l_orderkey >= %d and l_orderkey <= %d", lo, lo+1)
	}
	key := writeMarkerBase + 2*cycle + f.n%3
	parts := f.srv.db.Catalog.Table("part").RowCount
	supps := f.srv.db.Catalog.Table("supplier").RowCount
	var sb strings.Builder
	sb.WriteString("insert into lineitem values ")
	for j := 0; j < 10; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d.25, 0.0%d, 0.02, 'N', 'O', '1995-03-%02d', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'bench marker')",
			key, 1+f.rng.Int63n(parts), 1+f.rng.Int63n(supps), j+1, 1+f.rng.Intn(50), 1000+f.rng.Intn(9000), f.rng.Intn(10), 1+f.rng.Intn(28))
	}
	return sb.String()
}

// BenchmarkExecWrite is one insert-insert-delete cycle of the write_maintain
// writer through /exec: parse, base write, eight view deltas and applies, WAL
// append + fsync, publish. A CPU profile of it is the per-stage split in
// EXPERIMENTS.md ("What a write costs").
func BenchmarkExecWrite(b *testing.B) {
	f := newWriteFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 3; k++ {
			f.exec(b, f.next())
		}
	}
}

// TestExecWriteAllocates: through /exec, with all eight views maintained and
// the WAL on, a 10-row INSERT and a DELETE of twenty tail rows each allocate
// at most 70 000 bytes on a 60 k-row lineitem: the worst statement measured
// 53–63 kB (an INSERT; the DELETE ~42 kB). The 13 MB a statement cost when
// every write copied the table it touched fails it, and so does the 124 kB
// its worst statement cost when each block a view's updated group lay in was
// copied into a new block and each INSERT literal was parsed as an
// expression. What is left is the parse (the tokens and one slab of rows),
// the Δ batch, the views' appends, the block lists of the blocks their
// updated groups lie in — a group is written in place, and the first write
// since the last commit to a block a published version reads copies it into
// a block an earlier statement retired once no snapshot can read that one,
// so only the column's block list is new — the index shards a new or
// vanished group touches (256 per index, indexShards in storage.go, a
// published one cloned on first write), and the WAL record. The base
// table's own share is bounded at 256 KB by storage's
// TestWriteAllocationIsFlat.
func TestExecWriteAllocates(t *testing.T) {
	f := newWriteFixture(t)
	for i := 0; i < 6; i++ { // warm: locators built, buffers grown
		f.exec(t, f.next())
	}
	var worst [3]uint64
	for cycle := 0; cycle < 5; cycle++ {
		for k := 0; k < 3; k++ {
			sql := f.next()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			f.exec(t, sql)
			runtime.ReadMemStats(&m1)
			worst[k] = max(worst[k], m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	t.Logf("bytes allocated per statement (worst of 5): insert %d, insert %d, delete %d", worst[0], worst[1], worst[2])
	const limit = 70_000
	for k, got := range worst {
		if got > limit {
			t.Errorf("statement %d of the cycle allocated %d bytes, limit %d", k, got, limit)
		}
	}
}
