// Quickstart: create a materialized view, watch the optimizer rewrite a
// query to use it, and verify the rewritten plan returns identical rows.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"matview/internal/exec"
	"matview/internal/shell"
	"matview/internal/sqlparser"
	"matview/internal/tpch"
)

func main() {
	// A small TPC-H-shaped database (~6000 lineitem rows).
	db, err := tpch.NewDatabase(0.001, 42)
	if err != nil {
		log.Fatal(err)
	}
	cat := db.Catalog

	// 1. Create and materialize an indexed view (paper §2, Example 1 style):
	// gross revenue per part, restricted to small part keys.
	viewSQL := `
		create view part_revenue with schemabinding as
		select l_partkey, count_big(*) as cnt,
		       sum(l_extendedprice * l_quantity) as revenue
		from lineitem
		where l_partkey < 300
		group by l_partkey`
	// The session defines, builds and installs the view — the rows stored
	// and the optimizer told of it — as the shell and the server do.
	sess := shell.NewSession(db)
	if err := sess.Execute(viewSQL, os.Stdout); err != nil {
		log.Fatal(err)
	}
	o := sess.Opt
	fmt.Println()

	// 2. A narrower aggregation query: the optimizer should answer it from
	// the view with a compensating range predicate (§3.1.2).
	querySQL := `
		select l_partkey, sum(l_extendedprice * l_quantity) as revenue
		from lineitem
		where l_partkey < 100
		group by l_partkey`
	q, err := sqlparser.ParseQuery(cat, querySQL)
	if err != nil {
		log.Fatal(err)
	}

	res, err := o.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimized plan:")
	fmt.Print(exec.Explain(res.Plan))
	fmt.Printf("uses materialized view: %v (estimated cost %.0f)\n\n", res.UsesView, res.Cost)

	// 3. Execute both the rewritten plan and the raw query; the row sets
	// must be identical (bag semantics, §3.1).
	fromView, err := res.Plan.Run(db)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := exec.RunQuery(db, q)
	if err != nil {
		log.Fatal(err)
	}
	if !exec.SameRows(fromView, direct) {
		log.Fatalf("row bags differ:\n view:   %v\n direct: %v", fromView, direct)
	}
	fmt.Printf("verified: view-based plan and direct evaluation agree on all %d rows\n", len(direct))

	// 4. Peek at the substitute expression the matcher constructed.
	sub := o.Matcher().Match(q, o.ViewByName("part_revenue"))
	if sub == nil {
		log.Fatal("matcher unexpectedly rejected the view")
	}
	fmt.Printf("\nsubstitute expression:\n  %s\n", sub)
}
