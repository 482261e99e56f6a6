//go:build !race

package filtertree_test

import "testing"

// The race detector makes sync.Pool drop a share of what is put back, so the
// allocation guard only means something without it.

// A lookup walks eight lattice levels on pooled scratch; the only thing it
// may allocate is the slice it returns.
func TestCandidatesAllocatesOnlyItsResult(t *testing.T) {
	tree, keys := paperTree(t, 300, 40)
	some := 0
	for _, qk := range keys {
		tree.Candidates(qk) // size the pooled buffers
		want := 0.0
		if len(tree.Candidates(qk)) > 0 {
			want = 1
			some++
		}
		if n := testing.AllocsPerRun(50, func() { tree.Candidates(qk) }); n > want {
			t.Errorf("Candidates allocates %v objects for %d candidates", n, len(tree.Candidates(qk)))
		}
	}
	if some == 0 {
		t.Fatal("no query had candidates; test is vacuous")
	}
}
