package shell_test

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"matview/internal/shell"
	"matview/internal/tpch"
)

// writeViewsDDL is the benchmark's write_maintain view set: four lineitem
// rollups, two lineitem-orders joins, one SPJ range view and one orders-only
// rollup that lineitem writes leave alone.
var writeViewsDDL = []string{
	"create view wm_part with schemabinding as select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_partkey",
	"create unique index wm_part_idx on wm_part (l_partkey)",
	"create view wm_supp with schemabinding as select l_suppkey, count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem group by l_suppkey",
	"create view wm_flag with schemabinding as select l_returnflag, l_linestatus, count_big(*) as cnt, sum(l_quantity) as qty from lineitem group by l_returnflag, l_linestatus",
	"create view wm_mode with schemabinding as select l_shipmode, count_big(*) as cnt, sum(l_extendedprice * (1 - l_discount)) as revenue from lineitem group by l_shipmode",
	"create view wm_cust with schemabinding as select o_custkey, count_big(*) as cnt, sum(l_quantity) as qty from lineitem, orders where l_orderkey = o_orderkey group by o_custkey",
	"create view wm_prio with schemabinding as select o_orderpriority, count_big(*) as cnt, sum(l_extendedprice) as revenue from lineitem, orders where l_orderkey = o_orderkey group by o_orderpriority",
	"create view wm_small with schemabinding as select l_orderkey, l_linenumber, l_partkey, l_quantity from lineitem where l_quantity <= 3",
	"create view wm_ocust with schemabinding as select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total from orders group by o_custkey",
}

// BenchmarkSessionWrite is one insert-insert-delete cycle of write_maintain's
// writer run through Session.Execute in memory — parse, base write, the
// views' maintenance program, publish; no WAL — with the eight views and
// without any: the difference is what the views cost a write.
func BenchmarkSessionWrite(b *testing.B) {
	for _, views := range []int{0, 8} {
		b.Run(fmt.Sprintf("views=%d", views), func(b *testing.B) {
			db, err := tpch.NewDatabase(0.01, 1)
			if err != nil {
				b.Fatal(err)
			}
			s := shell.NewSession(db)
			if views > 0 {
				for _, ddl := range writeViewsDDL {
					if err := s.Execute(ddl, io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			}
			rng := rand.New(rand.NewSource(1))
			parts, supps := db.Catalog.Table("part").RowCount, db.Catalog.Table("supplier").RowCount
			orders := db.Table("orders")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Two 10-row INSERTs on existing orders, then their DELETE.
				var keys [2]int64
				for k := range keys {
					keys[k] = orders.RowAt(rng.Intn(orders.NumRows()))[tpch.OOrderkey].Int()
					var sb strings.Builder
					sb.WriteString("insert into lineitem values ")
					for j := 0; j < 10; j++ {
						if j > 0 {
							sb.WriteString(", ")
						}
						fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d.25, 0.0%d, 0.02, 'N', 'O', '1995-03-%02d', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'bench marker')",
							keys[k], 1+rng.Int63n(parts), 1+rng.Int63n(supps), 100+j, 1+rng.Intn(50), 1000+rng.Intn(9000), rng.Intn(10), 1+rng.Intn(28))
					}
					if err := s.Execute(sb.String(), io.Discard); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Execute(fmt.Sprintf("delete from lineitem where l_linenumber >= 100 and (l_orderkey = %d or l_orderkey = %d)", keys[0], keys[1]), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
