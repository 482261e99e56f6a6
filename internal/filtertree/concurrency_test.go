package filtertree

import (
	"fmt"
	"sync"
	"testing"

	"matview/internal/core"
	"matview/internal/spjg"
)

// stressViews builds n simple single-table views over alternating TPC-H
// tables with varying output sets, so they spread across the tree.
func stressViews(t *testing.T, m *core.Matcher, n int) []*core.View {
	t.Helper()
	tables := []string{"lineitem", "orders", "customer", "part"}
	out := make([]*core.View, n)
	for i := range out {
		tab := tables[i%len(tables)]
		def := &spjg.Query{
			Tables:  []spjg.TableRef{tref(tab)},
			Outputs: []spjg.OutputColumn{colOut(0, i%3), colOut(0, 3+i%2)},
		}
		v, err := m.NewView(i, fmt.Sprintf("sv%03d", i), def)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// TestCandidatesCopyOnReturn proves the returned candidate slice never
// aliases pooled scratch: mutating it and searching again must not corrupt
// subsequent results.
func TestCandidatesCopyOnReturn(t *testing.T) {
	m := core.NewMatcher(tcat, core.DefaultOptions())
	tr := New()
	for _, v := range stressViews(t, m, 24) {
		tr.Insert(v)
	}
	q := &spjg.Query{
		Tables:  []spjg.TableRef{tref("lineitem")},
		Outputs: []spjg.OutputColumn{colOut(0, 0)},
	}
	qk := ptr(m.ComputeQueryKeys(q))

	first := tr.Candidates(qk)
	if len(first) == 0 {
		t.Fatal("no candidates; test is vacuous")
	}
	want := ids(first)

	// Vandalize the returned slice in place, including beyond its length up
	// to capacity — if it aliased pooled scratch, the next search would see
	// the damage.
	trashed := first[:cap(first)]
	for i := range trashed {
		trashed[i] = nil
	}

	second := tr.Candidates(qk)
	got := ids(second)
	if len(got) != len(want) {
		t.Fatalf("after mutation: candidates = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after mutation: candidates = %v, want %v", got, want)
		}
	}
}

// TestConcurrentSearchInsert stresses the tree's locking under -race:
// searches run concurrently with each other and with Insert/Delete. Results
// must always be internally consistent (non-nil views, sorted by ID).
func TestConcurrentSearchInsert(t *testing.T) {
	m := core.NewMatcher(tcat, core.DefaultOptions())
	tr := New()
	views := stressViews(t, m, 64)
	for _, v := range views[:32] {
		tr.Insert(v)
	}
	queries := []*spjg.Query{
		{Tables: []spjg.TableRef{tref("lineitem")}, Outputs: []spjg.OutputColumn{colOut(0, 0)}},
		{Tables: []spjg.TableRef{tref("orders")}, Outputs: []spjg.OutputColumn{colOut(0, 1)}},
		{Tables: []spjg.TableRef{tref("customer")}, Outputs: []spjg.OutputColumn{colOut(0, 2)}},
	}
	keys := make([]*core.QueryKeys, len(queries))
	for i, q := range queries {
		keys[i] = ptr(m.ComputeQueryKeys(q))
	}

	var wg sync.WaitGroup
	// Writer: insert the second half, then delete some of the first.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range views[32:] {
			tr.Insert(v)
		}
		for _, v := range views[:8] {
			tr.Delete(v)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				got := tr.Candidates(keys[(w+round)%len(keys)])
				for i, v := range got {
					if v == nil {
						t.Errorf("nil candidate at %d", i)
						return
					}
					if i > 0 && got[i-1].ID >= v.ID {
						t.Errorf("candidates not sorted by ID: %v", ids(got))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := tr.Len(); n != 64-8 {
		t.Errorf("Len = %d, want %d", n, 64-8)
	}
}
