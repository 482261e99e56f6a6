package opt_test

import (
	"fmt"
	"testing"

	"matview/internal/opt"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// TestSubContextPaperWorkload: every memo group and pre-aggregation block of
// the 1000 §5 queries against the 1000 §5 views.
func TestSubContextPaperWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses every subexpression of 1000 queries twice")
	}
	cat := tpch.NewCatalog(0.5)
	gen := workload.New(cat, workload.DefaultConfig(1))
	o := opt.NewOptimizer(cat, opt.DefaultOptions())
	for i, n := 0, 0; n < 1000; i++ {
		if v := gen.View(i); v.ValidateAsView() == nil {
			if _, err := o.RegisterView(fmt.Sprintf("mv%04d", n), v); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	d := &opt.Differential{T: t, O: o}
	for i, n := 0, 0; n < 1000; i++ {
		if q := gen.Query(i); q.Validate() == nil {
			d.Query(fmt.Sprintf("query %d", n), q)
			n++
		}
	}
	d.Report()
	if d.Groups < 5000 || d.Blocks < 500 || d.Substitutes < 10000 {
		t.Fatal("the workload exercises too little")
	}
}

// TestSubContextRandomWorkload: the views and queries of
// TestOptimizerRandomWorkload (other generator settings, 50 views).
func TestSubContextRandomWorkload(t *testing.T) {
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
	for i, n := 0, 0; n < 50; i++ {
		if def := gen.View(i); def.ValidateAsView() == nil {
			if _, err := o.RegisterView(fmt.Sprintf("mv%d", i), def); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	d := &opt.Differential{T: t, O: o}
	for qi := 0; qi < 120; qi++ {
		if q := gen.Query(qi); q.Validate() == nil {
			d.Query(fmt.Sprintf("query %d", qi), q)
		}
	}
	d.Report()
	if d.Groups == 0 || d.Blocks == 0 || d.Substitutes == 0 {
		t.Fatal("the workload exercises too little")
	}
}
