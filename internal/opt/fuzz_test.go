package opt_test

import (
	"fmt"
	"testing"

	"matview/internal/exec"
	"matview/internal/opt"
	"matview/internal/storage"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// TestOptimizerRandomWorkload pushes randomly generated queries through the
// full optimizer — memo, view-matching rule, pre-aggregation — with a bank of
// materialized random views, and checks every chosen plan against the
// reference evaluator. This exercises plan assembly paths (subset view
// plans, rollups, compensations) that hand-written tests cannot enumerate.
func TestOptimizerRandomWorkload(t *testing.T) {
	db, err := tpch.NewDatabase(0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	wcfg := workload.DefaultConfig(31)
	wcfg.ViewOutputColProb = 0.9
	wcfg.OneSidedRangeProb = 0.9
	wcfg.RangePaletteSize = 1
	gen := workload.New(cat, wcfg)

	o := opt.NewOptimizer(cat, opt.DefaultOptions())
	registered := 0
	for i := 0; registered < 50; i++ {
		def := gen.View(i)
		if def.ValidateAsView() != nil {
			continue
		}
		name := fmt.Sprintf("mv%d", i)
		if _, err := o.RegisterView(name, def); err != nil {
			t.Fatalf("register view %d: %v", i, err)
		}
		rows, err := exec.RunQuery(db, def)
		if err != nil {
			t.Fatalf("materialize view %d: %v", i, err)
		}
		mv, err := db.PutView(name, storage.StoreOf(len(def.Outputs), rows))
		if err != nil {
			t.Fatalf("materialize view %d: %v", i, err)
		}
		o.SetViewRowCount(name, mv.RowCount())
		registered++
	}

	plansWithViews := 0
	checked := 0
	for qi := 0; qi < 120; qi++ {
		q := gen.Query(qi)
		if q.Validate() != nil {
			continue
		}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, q.String())
		}
		got, err := res.Plan.Run(db)
		if err != nil {
			t.Fatalf("query %d plan: %v\n%s", qi, err, exec.Explain(res.Plan))
		}
		want, err := exec.RunQuery(db, q)
		if err != nil {
			t.Fatalf("query %d reference: %v", qi, err)
		}
		if !exec.SameRows(got, want) {
			t.Fatalf("query %d: optimized plan disagrees with reference (%d vs %d rows)\nquery: %s\nplan:\n%s",
				qi, len(got), len(want), q.String(), exec.Explain(res.Plan))
		}
		checked++
		if res.UsesView {
			plansWithViews++
		}
	}
	if plansWithViews == 0 {
		t.Fatal("no optimized plan used a view; the fuzz is too weak")
	}
	t.Logf("checked %d plans, %d used materialized views", checked, plansWithViews)
}
