package exec_test

import (
	"fmt"
	"testing"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/spjg"
	"matview/internal/storage"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// materialize stores the rows of a view definition under name — what a
// maintainer's Build and Install do for a maintained view.
func materialize(db *storage.Database, name string, def *spjg.Query) (*storage.MaterializedView, error) {
	rows, err := exec.RunQuery(db, def)
	if err != nil {
		return nil, err
	}
	return db.PutView(name, storage.StoreOf(len(def.Outputs), rows))
}

// TestRandomWorkloadEquivalence is the repository's broadest soundness check:
// every (generated view, generated query) pair where the matcher produces a
// substitute is executed both ways over generated TPC-H data, and the row
// bags must agree. A single disagreement means the matching tests of §3
// accepted an unsound rewrite.
//
// Every plan additionally runs through both evaluators — the row-at-a-time
// reference interpreter and the batched engine with parallel workers and a
// deliberately tiny batch size (maximum morsel interleaving) — so the same
// suite that proves rewrites sound also proves the engines equivalent over
// the fuzzed query space.
func TestRandomWorkloadEquivalence(t *testing.T) {
	const (
		numViews   = 60
		numQueries = 250
	)
	db, err := tpch.NewDatabase(0.001, 13)
	if err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog
	// Crank the workload's overlap knobs so many pairs match: the point here
	// is verifying soundness of accepted rewrites, not measuring match rates.
	wcfg := workload.DefaultConfig(21)
	wcfg.ViewOutputColProb = 0.9
	wcfg.OneSidedRangeProb = 0.9
	wcfg.RangePaletteSize = 1
	gen := workload.New(cat, wcfg)
	m := core.NewMatcher(cat, core.DefaultOptions())

	type mview struct {
		v   *core.View
		def int
	}
	var views []mview
	for i := 0; len(views) < numViews; i++ {
		def := gen.View(i)
		if def.ValidateAsView() != nil {
			continue
		}
		name := fmt.Sprintf("mv%d", i)
		v, err := m.NewView(len(views), name, def)
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if _, err := materialize(db, name, def); err != nil {
			t.Fatalf("materialize %d: %v", i, err)
		}
		views = append(views, mview{v, i})
	}

	// Several workers with a tiny batch size force many morsels even on the
	// small fuzz tables, so parallel merge paths genuinely execute; one worker
	// at the default batch size is what a maintenance delta runs on.
	engines := []*exec.Engine{{Workers: 4, BatchSize: 16}, {Workers: 2, BatchSize: 3}, {Workers: 1}}
	// bothEngines runs one plan through the reference interpreter and the
	// batched engine and requires bag-equal output. The reference reads every
	// row, never skips a block and keys every join on boxed values, so a zone
	// map that pruned a qualifying row or a typed key that met the wrong
	// partner shows up here.
	bothEngines := func(plan exec.Node, what string) []storage.Row {
		ref, err := exec.RunReference(db, plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}
		for _, engine := range engines {
			eng, err := engine.Run(db, plan)
			if err != nil {
				t.Fatalf("%s: engine %+v: %v", what, *engine, err)
			}
			if !exec.SameRows(ref, eng) {
				t.Fatalf("%s: engine %+v disagrees with the reference (%d vs %d rows)\nplan:\n%s",
					what, *engine, len(eng), len(ref), exec.Explain(plan))
			}
		}
		return ref
	}

	matched, verified := 0, 0
	for qi := 0; qi < numQueries; qi++ {
		q := gen.Query(qi)
		if q.Validate() != nil {
			continue
		}
		var want []storage.Row
		haveWant := false
		for _, mv := range views {
			sub := m.Match(q, mv.v)
			if sub == nil {
				continue
			}
			matched++
			if !haveWant {
				plan, err := exec.BuildReferencePlan(q)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				want = bothEngines(plan, fmt.Sprintf("query %d", qi))
				haveWant = true
			}
			got := bothEngines(exec.BuildSubstitutePlan(sub),
				fmt.Sprintf("query %d via view %s", qi, mv.v.Name))
			if !exec.SameRows(got, want) {
				t.Fatalf("query %d via view %s: results differ (%d vs %d rows)\nquery: %s\nview: %s\nsubstitute: %s",
					qi, mv.v.Name, len(got), len(want), q.String(), mv.v.Def.String(), sub)
			}
			verified++
		}
	}
	if matched == 0 {
		t.Fatal("no matches in the random workload; the check is vacuous")
	}
	t.Logf("verified %d/%d substitutes across %d queries × %d views",
		verified, matched, numQueries, numViews)
}
