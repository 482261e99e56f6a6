package filtertree_test

import (
	"fmt"
	"testing"

	"matview/internal/core"
	"matview/internal/filtertree"
	"matview/internal/lattice"
	"matview/internal/tpch"
	"matview/internal/workload"
)

// TestFilterSoundnessRandomWorkload checks §4's cardinal invariant on a
// large random workload: the filter tree never discards a view the matcher
// would accept, in both the paper-prototype and the fully-extended matcher
// configurations (whose filter keys differ — e.g. the backjoinable closure).
// Between sweeps a third of the views are dropped, and then registered again
// under new IDs, so the sweep also runs over a tree whose lattice nodes have
// been unlinked and re-created and whose dictionary holds elements that, for
// a while, no live view has.
func TestFilterSoundnessRandomWorkload(t *testing.T) {
	cat := tpch.NewCatalog(0.5)
	wcfg := workload.DefaultConfig(123)
	wcfg.ViewOutputColProb = 0.85
	wcfg.OneSidedRangeProb = 0.8
	wcfg.RangePaletteSize = 1
	gen := workload.New(cat, wcfg)

	configs := []struct {
		name string
		opts core.MatchOptions
	}{
		{"prototype", core.MatchOptions{}},
		{"extended", core.DefaultOptions()},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			m := core.NewMatcher(cat, cfg.opts)
			tree, views := paperViews(t, gen, m, 200)
			matches, kept := 0, 0
			sweep := func(stage string) {
				for qi := 0; qi < 150; qi++ {
					q := gen.Query(qi)
					if q.Validate() != nil {
						continue
					}
					qc := m.NewQueryContext(q)
					inCands := map[int]bool{}
					for _, c := range tree.Candidates(qc.Keys()) {
						inCands[c.ID] = true
					}
					for _, v := range views {
						if v == nil || qc.Match(v) == nil {
							continue
						}
						matches++
						if inCands[v.ID] {
							kept++
						} else {
							t.Fatalf("%s, query %d: view %s matches but was filtered out\nquery: %s\nview: %s",
								stage, qi, v.Name, q.String(), v.Def.String())
						}
					}
				}
			}
			sweep("all views")
			var dropped []*core.View
			for i := 0; i < len(views); i += 3 {
				if !tree.Delete(views[i]) {
					t.Fatalf("view %s not found for deletion", views[i].Name)
				}
				dropped = append(dropped, views[i])
				views[i] = nil
			}
			sweep("after dropping a third")
			for _, old := range dropped {
				v, err := m.NewView(len(views), old.Name+"r", old.Def)
				if err != nil {
					t.Fatal(err)
				}
				tree.Insert(v)
				views = append(views, v)
			}
			sweep("after re-registering them")
			if tree.Len() != 200 {
				t.Fatalf("tree holds %d views, want 200", tree.Len())
			}
			if matches == 0 {
				t.Fatal("workload produced no matches; the soundness check is vacuous")
			}
			t.Logf("%s: %d/%d matching views survived the filter", cfg.name, kept, matches)
		})
	}
}

// paperViews registers the first n valid views of the generator with the
// matcher and a new tree.
func paperViews(tb testing.TB, gen *workload.Generator, m *core.Matcher, n int) (*filtertree.Tree, []*core.View) {
	tb.Helper()
	tree := filtertree.New()
	var views []*core.View
	for i := 0; len(views) < n; i++ {
		def := gen.View(i)
		if def.ValidateAsView() != nil {
			continue
		}
		v, err := m.NewView(len(views), fmt.Sprintf("v%d", i), def)
		if err != nil {
			tb.Fatal(err)
		}
		tree.Insert(v)
		views = append(views, v)
	}
	return tree, views
}

// paperTree is paperViews under the default options plus the search keys of
// the first valid queries.
func paperTree(tb testing.TB, n, queries int) (*filtertree.Tree, []*core.QueryKeys) {
	tb.Helper()
	cat := tpch.NewCatalog(0.5)
	gen := workload.New(cat, workload.DefaultConfig(1))
	m := core.NewMatcher(cat, core.DefaultOptions())
	tree, _ := paperViews(tb, gen, m, n)
	var keys []*core.QueryKeys
	for i := 0; len(keys) < queries; i++ {
		if q := gen.Query(i); q.Validate() == nil {
			keys = append(keys, m.NewQueryContext(q).Keys())
		}
	}
	return tree, keys
}

// BenchmarkCandidates1000 is one filter-tree lookup against the paper's 1000
// views, serial and from parallel searchers.
func BenchmarkCandidates1000(b *testing.B) {
	tree, keys := paperTree(b, 1000, 50)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.Candidates(keys[i%len(keys)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				tree.Candidates(keys[i%len(keys)])
			}
		})
	})
}

// TestLevelSurvivors evaluates the partitioning conditions of §4.2 one by one
// over every (query, view) pair of the paper's workload, in tree order, and
// checks that the views surviving all of them are exactly the tree's
// candidates — the tree is a faster way to evaluate the same conjunction, not
// a different filter. Run with -v for the per-level survivor counts that
// EXPERIMENTS.md quotes for both option sets.
func TestLevelSurvivors(t *testing.T) {
	if testing.Short() {
		t.Skip("1000 queries × 1000 views")
	}
	cat := tpch.NewCatalog(0.5)
	gen := workload.New(cat, workload.DefaultConfig(1))
	covers := func(key lattice.Set, classes []lattice.Set) bool {
		for _, cls := range classes {
			if !key.Intersects(cls) {
				return false
			}
		}
		return true
	}
	levels := []struct {
		name string
		pass func(v *core.ViewKeys, q *core.QueryKeys) bool
	}{
		{"hub", func(v *core.ViewKeys, q *core.QueryKeys) bool { return v.Hub.SubsetOf(q.SourceTables) }},
		{"sources", func(v *core.ViewKeys, q *core.QueryKeys) bool { return q.SourceTables.SubsetOf(v.SourceTables) }},
		{"outexprs", func(v *core.ViewKeys, q *core.QueryKeys) bool {
			if v.IsAggregate {
				return q.OutputExprsAgg.SubsetOf(v.OutputExprs)
			}
			return q.OutputExprsSPJ.SubsetOf(v.OutputExprs)
		}},
		{"outcols", func(v *core.ViewKeys, q *core.QueryKeys) bool { return covers(v.OutputCols, q.OutputClasses) }},
		{"residuals", func(v *core.ViewKeys, q *core.QueryKeys) bool { return v.Residuals.SubsetOf(q.Residuals) }},
		{"ranges (weak)", func(v *core.ViewKeys, q *core.QueryKeys) bool { return v.RangeColsReduced.SubsetOf(q.ExtRangeCols) }},
		{"groupexprs", func(v *core.ViewKeys, q *core.QueryKeys) bool {
			return !v.IsAggregate || q.GroupingExprs.SubsetOf(v.GroupingExprs)
		}},
		{"groupcols", func(v *core.ViewKeys, q *core.QueryKeys) bool {
			return !v.IsAggregate || covers(v.GroupingCols, q.GroupingClasses)
		}},
		{"ranges (strong)", func(v *core.ViewKeys, q *core.QueryKeys) bool { return covers(q.ExtRangeCols, v.RangeClasses) }},
	}
	for _, set := range []struct {
		name string
		opts core.MatchOptions
	}{{"core.MatchOptions{}", core.MatchOptions{}}, {"core.DefaultOptions()", core.DefaultOptions()}} {
		m := core.NewMatcher(cat, set.opts)
		tree, views := paperViews(t, gen, m, 1000)
		survivors := make([]int, len(levels))
		queries, fromTree, matched := 0, 0, 0
		for i := 0; queries < 1000; i++ {
			q := gen.Query(i)
			if q.Validate() != nil {
				continue
			}
			queries++
			qc := m.NewQueryContext(q)
			qk := qc.Keys()
			var want []int
		views:
			for _, v := range views {
				// The routing rule ahead of the levels: aggregation views
				// only for aggregation queries with a GROUP BY.
				if v.Keys.IsAggregate && (!qk.IsAggregate || qk.ScalarAggregate) {
					continue
				}
				for li, lv := range levels {
					if !lv.pass(&v.Keys, qk) {
						continue views
					}
					survivors[li]++
				}
				want = append(want, v.ID)
			}
			got := tree.Candidates(qk)
			fromTree += len(got)
			if len(got) != len(want) {
				t.Fatalf("%s, query %d: tree returns %d candidates, the conditions admit %d", set.name, i, len(got), len(want))
			}
			for k, v := range got {
				if v.ID != want[k] {
					t.Fatalf("%s, query %d: tree candidates differ from the conditions' survivors", set.name, i)
				}
				if qc.Match(v) != nil {
					matched++
				}
			}
		}
		t.Logf("%s: %d whole-query lookups over %d views", set.name, queries, len(views))
		for li, lv := range levels {
			t.Logf("  after %-16s %8.2f views/lookup", lv.name, float64(survivors[li])/float64(queries))
		}
		t.Logf("  candidates %.3f/lookup (%.3f%% of views), %.1f%% of them match",
			float64(fromTree)/float64(queries), 100*float64(fromTree)/float64(queries)/float64(len(views)),
			100*float64(matched)/float64(fromTree))
	}
}
