// viewcache: the query-result caching scenario of §1 — "a smart system might
// also cache and reuse results of previously computed queries. Cached results
// can be treated as temporary materialized views." Ad-hoc query results are
// materialized on the fly and later, narrower queries are answered from the
// cache through the normal view-matching machinery.
//
//	go run ./examples/viewcache
package main

import (
	"fmt"
	"log"

	"matview/internal/opt"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

func main() {
	db, err := tpch.NewDatabase(0.001, 3)
	if err != nil {
		log.Fatal(err)
	}
	cat := db.Catalog
	o := opt.NewOptimizer(cat, opt.DefaultOptions())
	cacheN := 0

	// runAndCache optimizes, executes, and registers the query itself as a
	// temporary materialized view holding its result.
	runAndCache := func(sql string) {
		q, err := sqlparser.ParseQuery(cat, sql)
		if err != nil {
			log.Fatal(err)
		}
		res, err := o.Optimize(q)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := res.Plan.Run(db)
		if err != nil {
			log.Fatal(err)
		}
		src := "computed from base tables"
		if res.UsesView {
			src = "ANSWERED FROM CACHE"
		}
		fmt.Printf("%-28s %5d rows   [%s]\n", firstLine(sql), len(rows), src)

		// Cache the result if the expression is cacheable as an indexed view
		// and was not itself served from the cache.
		if res.UsesView || q.ValidateAsView() != nil {
			return
		}
		cacheN++
		name := fmt.Sprintf("cache%d", cacheN)
		if _, err := o.RegisterView(name, q); err != nil {
			log.Fatal(err)
		}
		db.PutView(name, storage.StoreOf(len(q.Outputs), rows))
		o.SetViewRowCount(name, int64(len(rows)))
		fmt.Printf("   -> cached as %s (%d rows)\n", name, len(rows))
	}

	fmt.Println("-- first wave: cold queries, results cached")
	runAndCache(`select l_partkey, l_suppkey, l_quantity, l_extendedprice
	             from lineitem where l_partkey <= 80`)
	runAndCache(`select o_orderkey, o_custkey, o_totalprice
	             from orders where o_totalprice <= 300000`)

	fmt.Println("\n-- second wave: narrower queries hit the cache")
	runAndCache(`select l_partkey, l_quantity
	             from lineitem where l_partkey <= 30`)
	runAndCache(`select o_orderkey, o_totalprice
	             from orders where o_totalprice <= 150000 and o_custkey = 50`)
	runAndCache(`select l_partkey, sum(l_quantity) as qty
	             from lineitem where l_partkey <= 60 group by l_partkey`)

	fmt.Println("\n-- a query outside any cached region computes from base tables")
	runAndCache(`select l_partkey, l_quantity from lineitem where l_partkey >= 150`)
}

func firstLine(s string) string {
	out := ""
	for _, r := range s {
		if r == '\n' {
			break
		}
		out += string(r)
	}
	if len(out) > 28 {
		out = out[:25] + "..."
	}
	return out
}
