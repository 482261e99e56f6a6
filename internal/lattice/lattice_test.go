package lattice

import (
	"math/rand"
	"sort"
	"testing"
)

// keys builds the set of the given one-letter elements. Letters are spread
// over several words so that keys of different lengths meet in every search.
func keys(ss ...string) Set {
	var s Set
	for _, e := range ss {
		s = s.Add(int(e[0]-'A') * 11)
	}
	return s
}

func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// figure1Index builds the lattice of Figure 1: keys A, B, D, AB, BE, ABC,
// ABF, BCDE with payloads 0..7.
func figure1Index() *Index[int] {
	x := New[int]()
	sets := [][]string{
		{"A"}, {"B"}, {"D"}, {"A", "B"}, {"B", "E"},
		{"A", "B", "C"}, {"A", "B", "F"}, {"B", "C", "D", "E"},
	}
	for i, s := range sets {
		x.Insert(keys(s...), i)
	}
	return x
}

func TestFigure1SupersetSearch(t *testing.T) {
	x := figure1Index()
	// The paper: supersets of AB are ABC, ABF, and AB itself.
	got := sortedInts(x.Supersets(keys("A", "B"), new(Scratch), nil))
	want := []int{3, 5, 6} // AB, ABC, ABF
	if !equalInts(got, want) {
		t.Fatalf("Supersets(AB) = %v, want %v", got, want)
	}
}

func TestFigure1SubsetSearch(t *testing.T) {
	x := figure1Index()
	// Subsets of BCDE: B, D, BE, BCDE.
	got := sortedInts(x.Subsets(keys("B", "C", "D", "E"), new(Scratch), nil))
	want := []int{1, 2, 4, 7}
	if !equalInts(got, want) {
		t.Fatalf("Subsets(BCDE) = %v, want %v", got, want)
	}
	// Subsets of AB: A, B, AB.
	got = sortedInts(x.Subsets(keys("A", "B"), new(Scratch), nil))
	want = []int{0, 1, 3}
	if !equalInts(got, want) {
		t.Fatalf("Subsets(AB) = %v, want %v", got, want)
	}
}

func TestNoDuplicateResults(t *testing.T) {
	// AB is reachable from both ABC and ABF; it must be returned once.
	x := figure1Index()
	got := x.Supersets(keys("A", "B"), new(Scratch), nil)
	seen := map[int]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate payload %d in %v", p, got)
		}
		seen[p] = true
	}
}

func TestEmptyKeyAndEmptySearch(t *testing.T) {
	x := New[int]()
	x.Insert(nil, 99) // empty key (e.g. a view with no residuals)
	x.Insert(keys("A"), 1)
	// Empty key is a subset of everything.
	if got := sortedInts(x.Subsets(keys("Z"), new(Scratch), nil)); !equalInts(got, []int{99}) {
		t.Errorf("Subsets(Z) = %v", got)
	}
	// Everything is a superset of the empty search key.
	if got := sortedInts(x.Supersets(nil, new(Scratch), nil)); !equalInts(got, []int{1, 99}) {
		t.Errorf("Supersets({}) = %v", got)
	}
	// Only the empty key is a subset of the empty search key.
	if got := sortedInts(x.Subsets(nil, new(Scratch), nil)); !equalInts(got, []int{99}) {
		t.Errorf("Subsets({}) = %v", got)
	}
}

func TestDuplicateKeysSharePayloadList(t *testing.T) {
	x := New[int]()
	x.Insert(keys("A", "B"), 1)
	x.Insert(keys("B", "A"), 2) // same canonical key
	x.Insert(keys("A", "B", "B"), 3)
	if x.Len() != 1 || x.Size() != 3 {
		t.Fatalf("Len=%d Size=%d", x.Len(), x.Size())
	}
	if got := sortedInts(x.Supersets(keys("A"), new(Scratch), nil)); !equalInts(got, []int{1, 2, 3}) {
		t.Errorf("payloads = %v", got)
	}
}

func TestCoveringConditionSearch(t *testing.T) {
	x := figure1Index()
	// Output-column-style condition: key must intersect {A, D} and {B}.
	got := sortedInts(x.Covering([]Set{keys("A", "D"), keys("B")}, new(Scratch), nil))
	// Qualifying keys: AB(3), ABC(5), ABF(6), BCDE(7).
	want := []int{3, 5, 6, 7}
	if !equalInts(got, want) {
		t.Fatalf("Covering = %v, want %v", got, want)
	}
	// No classes: every key qualifies.
	if got := x.Covering(nil, new(Scratch), nil); len(got) != 8 {
		t.Fatalf("Covering() = %v", got)
	}
}

func TestSetOps(t *testing.T) {
	a, ab, z := keys("A"), keys("A", "B"), keys("Z")
	if !a.SubsetOf(ab) || ab.SubsetOf(a) || !Set(nil).SubsetOf(a) || z.SubsetOf(ab) || ab.SubsetOf(z) {
		t.Error("SubsetOf wrong")
	}
	if !a.Intersects(ab) || a.Intersects(z) || z.Intersects(a) || a.Intersects(nil) {
		t.Error("Intersects wrong")
	}
	if !ab.Has(0) || !ab.Has(11) || ab.Has(1) || ab.Has(1000) || ab.Len() != 2 {
		t.Error("Has/Len wrong")
	}
}

func TestGet(t *testing.T) {
	x := figure1Index()
	if p, ok := x.Get(keys("B", "A")); !ok || p != 3 {
		t.Errorf("Get(AB) = %d, %v", p, ok)
	}
	if _, ok := x.Get(keys("A", "C")); ok {
		t.Error("Get found a key that was never inserted")
	}
}

func TestDelete(t *testing.T) {
	x := figure1Index()
	if !x.Delete(keys("A", "B"), func(p int) bool { return p == 3 }) {
		t.Fatal("delete failed")
	}
	// AB is gone; supersets of A must still find ABC and ABF through the
	// re-wired edges.
	got := sortedInts(x.Supersets(keys("A"), new(Scratch), nil))
	want := []int{0, 5, 6} // A, ABC, ABF
	if !equalInts(got, want) {
		t.Fatalf("Supersets(A) after delete = %v, want %v", got, want)
	}
	// Subset search must also still reach A from ABC.
	got = sortedInts(x.Subsets(keys("A", "B", "C"), new(Scratch), nil))
	want = []int{0, 1, 5}
	if !equalInts(got, want) {
		t.Fatalf("Subsets(ABC) after delete = %v, want %v", got, want)
	}
	// Deleting a missing payload reports false.
	if x.Delete(keys("A", "B"), func(p int) bool { return true }) {
		t.Fatal("deleted from a removed key")
	}
	if x.Delete(keys("Z"), func(p int) bool { return true }) {
		t.Fatal("deleted unknown key")
	}
}

func TestDeleteOnlyOnePayload(t *testing.T) {
	x := New[int]()
	x.Insert(keys("A"), 1)
	x.Insert(keys("A"), 2)
	x.Delete(keys("A"), func(p int) bool { return p == 1 })
	if got := x.Supersets(nil, new(Scratch), nil); len(got) != 1 || got[0] != 2 {
		t.Fatalf("payloads = %v", got)
	}
}

// naive is a reference implementation: linear scan over stored keys.
type naive struct {
	keys     [][]string
	payloads []int
}

func (n *naive) insert(key []string, p int) {
	n.keys = append(n.keys, key)
	n.payloads = append(n.payloads, p)
}

func isSubset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func setOf(key []string) map[string]bool {
	m := map[string]bool{}
	for _, k := range key {
		m[k] = true
	}
	return m
}

func (n *naive) supersets(search []string) []int {
	s := setOf(search)
	var out []int
	for i, k := range n.keys {
		if isSubset(s, setOf(k)) {
			out = append(out, n.payloads[i])
		}
	}
	return out
}

func (n *naive) subsets(search []string) []int {
	s := setOf(search)
	var out []int
	for i, k := range n.keys {
		if isSubset(setOf(k), s) {
			out = append(out, n.payloads[i])
		}
	}
	return out
}

// Property: the lattice index agrees with the naive linear scan on random
// key populations and random searches.
func TestLatticeAgainstNaive(t *testing.T) {
	alphabet := []string{"A", "B", "C", "D", "E", "F", "G"}
	r := rand.New(rand.NewSource(99))
	randKey := func() []string {
		var k []string
		for _, a := range alphabet {
			if r.Intn(3) == 0 {
				k = append(k, a)
			}
		}
		return k
	}
	for trial := 0; trial < 30; trial++ {
		x := New[int]()
		ref := &naive{}
		nKeys := 1 + r.Intn(40)
		for i := 0; i < nKeys; i++ {
			k := randKey()
			x.Insert(keys(k...), i)
			ref.insert(k, i)
		}
		for s := 0; s < 20; s++ {
			search := randKey()
			got := sortedInts(x.Supersets(keys(search...), new(Scratch), nil))
			want := sortedInts(ref.supersets(search))
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Supersets(%v) = %v, want %v", trial, search, got, want)
			}
			got = sortedInts(x.Subsets(keys(search...), new(Scratch), nil))
			want = sortedInts(ref.subsets(search))
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Subsets(%v) = %v, want %v", trial, search, got, want)
			}
		}
	}
}

// Property: after random deletions the index still agrees with the naive
// implementation.
func TestLatticeDeleteAgainstNaive(t *testing.T) {
	alphabet := []string{"A", "B", "C", "D", "E"}
	r := rand.New(rand.NewSource(7))
	randKey := func() []string {
		var k []string
		for _, a := range alphabet {
			if r.Intn(2) == 0 {
				k = append(k, a)
			}
		}
		return k
	}
	for trial := 0; trial < 20; trial++ {
		x := New[int]()
		type entry struct {
			key []string
			p   int
		}
		var entries []entry
		for i := 0; i < 25; i++ {
			k := randKey()
			x.Insert(keys(k...), i)
			entries = append(entries, entry{k, i})
		}
		// Delete half of them.
		for i := 0; i < 12; i++ {
			j := r.Intn(len(entries))
			e := entries[j]
			if !x.Delete(keys(e.key...), func(p int) bool { return p == e.p }) {
				t.Fatalf("trial %d: failed to delete %v/%d", trial, e.key, e.p)
			}
			entries = append(entries[:j], entries[j+1:]...)
		}
		ref := &naive{}
		for _, e := range entries {
			ref.insert(e.key, e.p)
		}
		for s := 0; s < 20; s++ {
			search := randKey()
			got := sortedInts(x.Supersets(keys(search...), new(Scratch), nil))
			want := sortedInts(ref.supersets(search))
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Supersets(%v) = %v, want %v", trial, search, got, want)
			}
			got = sortedInts(x.Subsets(keys(search...), new(Scratch), nil))
			want = sortedInts(ref.subsets(search))
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Subsets(%v) = %v, want %v", trial, search, got, want)
			}
		}
		if x.Size() != len(entries) {
			t.Fatalf("trial %d: Size=%d, want %d", trial, x.Size(), len(entries))
		}
	}
}

// The searches run on every rule invocation; in steady state they allocate
// nothing beyond what the caller's output slice needs.
func TestSearchesDoNotAllocate(t *testing.T) {
	x := figure1Index()
	out := make([]int, 0, 16)
	ab, bcde := keys("A", "B"), keys("B", "C", "D", "E")
	classes := []Set{keys("A", "D"), keys("B")}
	var sc Scratch
	if n := testing.AllocsPerRun(100, func() {
		out = x.Supersets(ab, &sc, out[:0])
		out = x.Subsets(bcde, &sc, out[:0])
		out = x.Covering(classes, &sc, out[:0])
	}); n != 0 {
		t.Errorf("searches allocate %v objects per run", n)
	}
}
