// maintenance: incremental view maintenance — the reason §2 requires every
// aggregation view to carry COUNT_BIG(*): deletions can then be applied to
// the materialized rows directly, and "when the count becomes zero, the
// group is empty and the row must be deleted". Queries keep being answered
// from the view while the base tables churn.
//
//	go run ./examples/maintenance
package main

import (
	"fmt"
	"log"
	"os"

	"matview/internal/exec"
	"matview/internal/shell"
	"matview/internal/sqlparser"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

func main() {
	db, err := tpch.NewDatabase(0.001, 8)
	if err != nil {
		log.Fatal(err)
	}
	cat := db.Catalog

	// A session keeps the maintainer, the optimizer and storage in step.
	sess := shell.NewSession(db)
	if err := sess.Execute(`
		create view cust_totals with schemabinding as
		select o_custkey, count_big(*) as cnt, sum(o_totalprice) as total
		from orders group by o_custkey`, os.Stdout); err != nil {
		log.Fatal(err)
	}
	mnt, o, view := sess.Maint, sess.Opt, sess.Maint.Views()[0]
	fmt.Println()

	report := func(label string) {
		q, err := sqlparser.ParseQuery(cat, `
			select o_custkey, sum(o_totalprice) as total
			from orders where o_custkey = 777777 group by o_custkey`)
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
		src := "base tables"
		if res.UsesView {
			src = "the maintained view"
		}
		if len(rows) == 0 {
			fmt.Printf("%-28s -> customer 777777 has no orders (answered from %s)\n", label, src)
			return
		}
		fmt.Printf("%-28s -> customer 777777 total = %.2f (%d group row(s), answered from %s)\n",
			label, rows[0][1].Float(), len(rows), src)
	}

	order := func(key int64, price float64) storage.Row {
		return storage.Row{
			sqlvalue.NewInt(key), sqlvalue.NewInt(777777), sqlvalue.NewString("O"),
			sqlvalue.NewFloat(price), sqlvalue.NewDateYMD(1996, 1, 15),
			sqlvalue.NewString("2-HIGH"), sqlvalue.NewString("Clerk#000000123"),
			sqlvalue.NewInt(0), sqlvalue.NewString("maintenance demo"),
		}
	}

	report("before any churn")

	fmt.Println("\ninserting 3 orders for customer 777777...")
	if err := mnt.Insert("orders", []storage.Row{
		order(8_000_001, 1000), order(8_000_002, 2500), order(8_000_003, 600),
	}); err != nil {
		log.Fatal(err)
	}
	report("after insert")

	fmt.Println("\ndeleting 2 of the 3 orders (group count 3 -> 1)...")
	if _, err := mnt.Delete("orders", func(r storage.Row) bool {
		k := r[tpch.OOrderkey].Int()
		return k == 8_000_001 || k == 8_000_002
	}); err != nil {
		log.Fatal(err)
	}
	report("after partial delete")

	fmt.Println("\ndeleting the last order (COUNT_BIG hits zero, group removed)...")
	if _, err := mnt.Delete("orders", func(r storage.Row) bool {
		return r[tpch.OOrderkey].Int() == 8_000_003
	}); err != nil {
		log.Fatal(err)
	}
	report("after full delete")

	// Final consistency proof: the maintained view equals a recomputation,
	// both read from the same committed snapshot.
	snap := db.Snapshot()
	fresh, err := exec.RunQuery(snap, view.Def)
	if err != nil {
		log.Fatal(err)
	}
	if !exec.SameRows(snap.ViewData(view.Name).Rows(), fresh) {
		log.Fatal("maintained view diverged from recomputation")
	}
	snap.Release()
	fmt.Printf("\nverified: after all churn, %s still equals a full recomputation (%d groups)\n",
		view.Name, db.View(view.Name).RowCount())
}
