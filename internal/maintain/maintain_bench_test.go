package maintain_test

import (
	"fmt"
	"sync"
	"testing"

	"matview/internal/expr"
	"matview/internal/maintain"
	"matview/internal/sqlparser"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

var maintBench struct {
	once sync.Once
	db   *storage.Database
	m    *maintain.Maintainer
	rows []storage.Row
	err  error
}

// maintBenchSetup builds the shared fixture: SF 0.01, two aggregation views
// over lineitem, and a 100-row batch keyed far outside the generated domain.
func maintBenchSetup(b *testing.B) (*maintain.Maintainer, []storage.Row) {
	b.Helper()
	maintBench.once.Do(func() {
		db, err := tpch.NewDatabase(0.01, 11)
		if err != nil {
			maintBench.err = err
			return
		}
		m := maintain.New(db)
		for _, v := range []struct{ name, sql string }{
			{"b_pq", `select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
				from lineitem group by l_partkey`},
			{"b_ps", `select l_suppkey, count_big(*) as cnt, sum(l_extendedprice) as total
				from lineitem group by l_suppkey`},
		} {
			def, err := sqlparser.ParseQuery(db.Catalog, v.sql)
			if err != nil {
				maintBench.err = err
				return
			}
			if _, err := register(m, v.name, def); err != nil {
				maintBench.err = err
				return
			}
		}
		// A fresh batch keyed far outside the generated domain so a delete by
		// part key removes exactly these rows.
		const marker = 99_000_000
		rows := make([]storage.Row, 100)
		for i := range rows {
			rows[i] = lineitemRow(int64(marker+i%7), int64(i))
		}
		maintBench.db, maintBench.m, maintBench.rows = db, m, rows
	})
	if maintBench.err != nil {
		b.Fatal(maintBench.err)
	}
	return maintBench.m, maintBench.rows
}

// BenchmarkMaintainInsertDelta measures one incremental-maintenance round
// trip on the hot DML path: insert a 100-row lineitem batch (delta query +
// merge into two aggregation views), then delete it again so the database
// returns to its initial state every iteration. The delete goes through the
// closure form of Delete, which boxes every live row to find its victims.
func BenchmarkMaintainInsertDelta(b *testing.B) {
	m, rows := maintBenchSetup(b)
	isMarker := func(r storage.Row) bool { return r[tpch.LPartkey].Int() >= 99_000_000 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Insert("lineitem", rows); err != nil {
			b.Fatal(err)
		}
		if n, err := m.Delete("lineitem", isMarker); err != nil || n != len(rows) {
			b.Fatalf("delete: n=%d err=%v", n, err)
		}
	}
}

// BenchmarkMaintainDeleteDelta measures the delete half alone, the way
// DELETE … WHERE runs it: the batch's rows are found by the compiled column
// predicate, tombstoned, and their delta subtracted from the two views. The
// insert that puts the batch back is not timed.
func BenchmarkMaintainDeleteDelta(b *testing.B) {
	m, rows := maintBenchSetup(b)
	where := expr.NewCmp(expr.GE, expr.Col(0, tpch.LPartkey), expr.CInt(99_000_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.Insert("lineitem", rows); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if n, err := m.DeleteWhere("lineitem", where); err != nil || n != len(rows) {
			b.Fatalf("delete: n=%d err=%v", n, err)
		}
	}
}

func lineitemRow(partkey, i int64) storage.Row {
	return storage.Row{
		sqlvalue.NewInt(1 + i*4),                       // l_orderkey
		sqlvalue.NewInt(partkey),                       // l_partkey
		sqlvalue.NewInt(1 + i%100),                     // l_suppkey
		sqlvalue.NewInt(1 + i%7),                       // l_linenumber
		sqlvalue.NewFloat(float64(1 + i%50)),           // l_quantity
		sqlvalue.NewFloat(1000 + float64(i)),           // l_extendedprice
		sqlvalue.NewFloat(0.05),                        // l_discount
		sqlvalue.NewFloat(0.02),                        // l_tax
		sqlvalue.NewString("N"),                        // l_returnflag
		sqlvalue.NewString("O"),                        // l_linestatus
		sqlvalue.NewDateYMD(1995, 5, 5),                // l_shipdate
		sqlvalue.NewDateYMD(1995, 5, 15),               // l_commitdate
		sqlvalue.NewDateYMD(1995, 5, 25),               // l_receiptdate
		sqlvalue.NewString("NONE"),                     // l_shipinstruct
		sqlvalue.NewString("MAIL"),                     // l_shipmode
		sqlvalue.NewString(fmt.Sprintf("bench %d", i)), // l_comment
	}
}
