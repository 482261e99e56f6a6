package eqclass

import (
	"math/rand"
	"testing"

	"matview/internal/expr"
)

func ref(t, c int) expr.ColRef { return expr.ColRef{Tab: t, Col: c} }

// space returns the trivial classes over three table instances of eight
// columns each.
func space() *Classes { return New(3, func(int) int { return 8 }) }

func TestUnionFindBasics(t *testing.T) {
	c := space()
	a, b, d := ref(0, 0), ref(1, 0), ref(2, 0)
	if !c.Same(a, a) {
		t.Error("column must equal itself")
	}
	if c.Same(a, b) {
		t.Error("distinct columns must not be Same before any union")
	}
	c.Union(a, b)
	if !c.Same(a, b) || !c.Same(b, a) {
		t.Error("union failed")
	}
	if c.Same(a, d) {
		t.Error("d should be separate")
	}
	c.Union(b, d)
	if !c.Same(a, d) {
		t.Error("transitivity through union failed")
	}
}

func TestTransitivityMatchesPaper(t *testing.T) {
	// §3.1.2: view has (A=B and B=C), query has (A=C and C=B); both imply
	// A=B=C and must produce identical classes.
	A, B, C := ref(0, 0), ref(0, 1), ref(0, 2)
	view := space()
	view.Union(A, B)
	view.Union(B, C)
	query := space()
	query.Union(A, C)
	query.Union(C, B)
	if !view.SubsetOf(query) || !query.SubsetOf(view) {
		t.Error("logically equivalent equality sets must be mutual subsets")
	}
}

func TestClassIDsSortedAndComplete(t *testing.T) {
	c := space()
	c.Union(ref(1, 5), ref(0, 2))
	c.Union(ref(0, 2), ref(1, 1))
	m := c.ClassIDs(c.ID(ref(1, 1)))
	want := []expr.ColRef{ref(0, 2), ref(1, 1), ref(1, 5)}
	if len(m) != 3 {
		t.Fatalf("members = %v", m)
	}
	for i := range want {
		if c.Ref(m[i]) != want[i] {
			t.Errorf("members[%d] = %v, want %v", i, c.Ref(m[i]), want[i])
		}
	}
	if got := c.ClassIDs(c.ID(ref(2, 3))); got != nil {
		t.Errorf("ClassIDs of a trivial class = %v", got)
	}
}

func TestNonTrivialEnumeration(t *testing.T) {
	c := space()
	c.Union(ref(1, 0), ref(0, 0))
	c.Union(ref(2, 1), ref(0, 5))
	c.Union(ref(0, 5), ref(1, 7))
	nt := c.NonTrivialIDs()
	if len(nt) != 2 || len(nt[0]) != 2 || len(nt[1]) != 3 {
		t.Fatalf("NonTrivialIDs() = %v", nt)
	}
	// Classes come ordered by smallest member, members ascending.
	if c.Ref(nt[0][0]) != ref(0, 0) || c.Ref(nt[1][0]) != ref(0, 5) || c.Ref(nt[1][2]) != ref(2, 1) {
		t.Errorf("enumeration order wrong: %v", nt)
	}
	if !c.IsTrivial(ref(2, 0)) || c.IsTrivial(ref(0, 0)) {
		t.Error("IsTrivial wrong")
	}
	if !c.IsTrivial(ref(8, 8)) {
		t.Error("column outside the space must be trivial")
	}
	// A later union invalidates and rebuilds the enumeration.
	c.Union(ref(0, 0), ref(0, 5))
	if nt := c.NonTrivialIDs(); len(nt) != 1 || len(nt[0]) != 5 {
		t.Fatalf("after merge NonTrivialIDs() = %v", nt)
	}
}

func TestIDRoundTrip(t *testing.T) {
	c := New(3, func(t int) int { return t + 2 }) // widths 2, 3, 4
	if c.Len() != 9 {
		t.Fatalf("Len = %d", c.Len())
	}
	for id := int32(0); id < int32(c.Len()); id++ {
		if got := c.ID(c.Ref(id)); got != id {
			t.Errorf("ID(Ref(%d)) = %d", id, got)
		}
	}
	for _, bad := range []expr.ColRef{ref(-1, 0), ref(3, 0), ref(0, 2), ref(1, -1)} {
		if c.ID(bad) != -1 {
			t.Errorf("ID(%v) inside the space", bad)
		}
	}
}

// The larger class keeps its representative and ties go to the first
// argument: the matcher orders compensating predicates by representative, so
// the rule is part of the contract.
func TestRepresentativeRule(t *testing.T) {
	c := space()
	find := func(r expr.ColRef) expr.ColRef { return c.Ref(c.FindID(c.ID(r))) }
	c.Union(ref(1, 0), ref(0, 0))
	if find(ref(0, 0)) != ref(1, 0) {
		t.Errorf("tie did not keep the first argument: %v", find(ref(0, 0)))
	}
	c.Union(ref(2, 0), ref(0, 0))
	if find(ref(2, 0)) != ref(1, 0) {
		t.Errorf("smaller class kept its representative: %v", find(ref(2, 0)))
	}
}

func TestFreeze(t *testing.T) {
	c := space()
	// A depth-2 chain: a=b, c=d, b=d leaves d two hops from the root.
	a, b, cc, d := ref(0, 0), ref(0, 1), ref(1, 0), ref(1, 1)
	c.Union(a, b)
	c.Union(cc, d)
	c.Union(b, d)
	root := c.FindID(c.ID(d))
	c.Freeze()
	for _, m := range []expr.ColRef{a, b, cc, d} {
		if id := c.ID(m); c.FindID(id) != root || c.parent[id] != root {
			t.Errorf("%v is not one load from the representative it had before Freeze", m)
		}
	}
	if got := c.ClassIDs(c.ID(d)); len(got) != 4 {
		t.Errorf("ClassIDs = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Union on frozen classes did not panic")
		}
	}()
	c.Union(a, ref(2, 2))
}

func TestResetLike(t *testing.T) {
	base := space()
	base.Union(ref(0, 0), ref(1, 0))
	base.Freeze()
	var sc Classes
	sc.ResetLike(base)
	if sc.Len() != base.Len() || sc.Same(ref(0, 0), ref(1, 0)) {
		t.Fatal("ResetLike must give trivial classes over the same space")
	}
	sc.Union(ref(0, 0), ref(2, 0))
	sc.ResetLike(base)
	if sc.Same(ref(0, 0), ref(2, 0)) || len(sc.NonTrivialIDs()) != 0 {
		t.Error("ResetLike kept state from the previous use")
	}
	if !base.Same(ref(0, 0), ref(1, 0)) {
		t.Error("ResetLike disturbed the classes it copied the space from")
	}
}

func TestSubsetOf(t *testing.T) {
	// View classes {A,B} ⊆ query class {A,B,C}: pass.
	A, B, C := ref(0, 0), ref(0, 1), ref(0, 2)
	view := space()
	view.Union(A, B)
	query := space()
	query.Union(A, B)
	query.Union(B, C)
	if !view.SubsetOf(query) {
		t.Error("subset classes rejected")
	}
	// Reverse direction must fail: query class {A,B,C} ⊄ view {A,B}.
	if query.SubsetOf(view) {
		t.Error("superset classes accepted")
	}
	// Disjoint merge in view not present in query: fail.
	view2 := space()
	view2.Union(A, C)
	if view2.SubsetOf(space()) {
		t.Error("nontrivial view class vs empty query accepted")
	}
	// Trivial-only view always passes.
	view3 := space()
	if !view3.SubsetOf(space()) {
		t.Error("trivial view class rejected")
	}
}

func TestAddEqualities(t *testing.T) {
	c := space()
	c.AddEqualities([]expr.EqualityConjunct{
		{A: ref(0, 0), B: ref(1, 0)},
		{A: ref(1, 0), B: ref(2, 0)},
	})
	if !c.Same(ref(0, 0), ref(2, 0)) {
		t.Error("AddEqualities transitivity failed")
	}
}

// Property: union-find agrees with a naive partition model under random
// operations.
func TestUnionFindAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		c := New(3, func(int) int { return 4 })
		model := map[expr.ColRef]int{} // column -> model class id
		next := 0
		cols := make([]expr.ColRef, 12)
		for i := range cols {
			cols[i] = ref(i/4, i%4)
			model[cols[i]] = next
			next++
		}
		for op := 0; op < 60; op++ {
			a, b := cols[r.Intn(len(cols))], cols[r.Intn(len(cols))]
			c.Union(a, b)
			// Merge in model.
			ida, idb := model[a], model[b]
			if ida != idb {
				for k, v := range model {
					if v == idb {
						model[k] = ida
					}
				}
			}
			// Spot-check agreement.
			x, y := cols[r.Intn(len(cols))], cols[r.Intn(len(cols))]
			if c.Same(x, y) != (model[x] == model[y]) {
				t.Fatalf("trial %d op %d: Same(%v,%v)=%v disagrees with model",
					trial, op, x, y, c.Same(x, y))
			}
		}
		// Class count agreement.
		ids := map[int]bool{}
		for _, v := range model {
			ids[v] = true
		}
		members := 0
		for _, cls := range c.NonTrivialIDs() {
			members += len(cls)
		}
		if got := len(c.NonTrivialIDs()) + len(cols) - members; got != len(ids) {
			t.Fatalf("trial %d: %d classes, model has %d", trial, got, len(ids))
		}
	}
}
