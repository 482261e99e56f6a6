// tpch_reporting: the data-warehouse scenario the paper's introduction
// motivates — a handful of materialized rollups answering a whole suite of
// reporting queries, including the rollup-through-a-join case of Example 4
// that needs the optimizer's pre-aggregation rule.
//
//	go run ./examples/tpch_reporting
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"matview/internal/exec"
	"matview/internal/shell"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/tpch"
)

func main() {
	db, err := tpch.NewDatabase(0.002, 7) // ~12k lineitem rows
	if err != nil {
		log.Fatal(err)
	}
	cat := db.Catalog
	sess := shell.NewSession(db) // defines, builds and installs each view
	o := sess.Opt

	views := []string{
		// Revenue rollup per customer over the order join — the paper's v4.
		`create view cust_revenue with schemabinding as
		 select o_custkey, count_big(*) as cnt,
		        sum(l_extendedprice * l_quantity) as revenue
		 from lineitem, orders
		 where l_orderkey = o_orderkey
		 group by o_custkey`,
		// Part/supplier quantity rollup.
		`create view part_supp_qty with schemabinding as
		 select l_partkey, l_suppkey, count_big(*) as cnt,
		        sum(l_quantity) as qty
		 from lineitem
		 group by l_partkey, l_suppkey`,
		// Wide SPJ view of recent orders.
		`create view big_orders with schemabinding as
		 select o_orderkey, o_custkey, o_totalprice, o_orderdate
		 from orders
		 where o_totalprice >= 100000`,
	}
	for _, sql := range views {
		if err := sess.Execute(sql, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()

	reports := []struct {
		name string
		sql  string
	}{
		{"revenue by customer (exact view)", `
			select o_custkey, sum(l_extendedprice * l_quantity) as revenue
			from lineitem, orders
			where l_orderkey = o_orderkey
			group by o_custkey`},
		{"revenue by nation (Example 4: pre-aggregation + view)", `
			select c_nationkey, sum(l_extendedprice * l_quantity) as revenue
			from lineitem, orders, customer
			where l_orderkey = o_orderkey and o_custkey = c_custkey
			group by c_nationkey`},
		{"quantity by part (rollup of part_supp_qty)", `
			select l_partkey, sum(l_quantity) as qty, count(*) as n
			from lineitem
			group by l_partkey`},
		{"expensive orders per customer (range over big_orders)", `
			select o_custkey, o_totalprice
			from orders
			where o_totalprice >= 200000`},
		{"avg quantity per part/supplier (AVG from view sums)", `
			select l_partkey, l_suppkey, avg(l_quantity) as aq
			from lineitem
			group by l_partkey, l_suppkey`},
	}

	for _, r := range reports {
		q, err := sqlparser.ParseQuery(cat, r.sql)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		res, err := o.Optimize(q)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		t0 := time.Now()
		rows, err := res.Plan.Run(db)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		optTime := time.Since(t0)

		t0 = time.Now()
		direct, err := exec.RunQuery(db, q)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		directTime := time.Since(t0)
		verify(r.name, rows, direct)

		marker := "base plan"
		if res.UsesView {
			marker = "USES VIEW"
		}
		fmt.Printf("%-55s %-9s  %5d rows  plan %8v  direct %8v (%.1fx)\n",
			r.name, marker, len(rows), optTime.Round(time.Microsecond),
			directTime.Round(time.Microsecond),
			float64(directTime)/float64(optTime))
	}
}

func verify(name string, a, b []storage.Row) {
	if !exec.SameRows(a, b) {
		log.Fatalf("%s: view-based plan and direct evaluation disagree", name)
	}
}
