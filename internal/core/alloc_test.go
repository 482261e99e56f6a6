//go:build !race

package core

import (
	"testing"

	"matview/internal/spjg"
)

// The race detector makes sync.Pool drop a share of what is put back, so the
// allocation guard only means something without it.

// A match rejected by the equijoin or range test works on pooled integer
// state: it must not allocate.
func TestRejectedMatchDoesNotAllocate(t *testing.T) {
	m := defaultMatcher()
	for name, c := range rejectCases(t, m) {
		if c.qc.Match(c.v) != nil {
			t.Fatalf("%s: pair matched; the case is supposed to be rejected", name)
		}
		if n := testing.AllocsPerRun(200, func() { c.qc.Match(c.v) }); n > 2 {
			t.Errorf("%s: rejected match allocates %v objects, want at most 2", name, n)
		}
	}
}

// Deriving a subexpression's context and its filter-tree keys reuses the
// storage of the previous derivation: once every subset has been derived,
// deriving them all again allocates nothing. Since converting, splitting,
// normalizing, fingerprinting or analysing a predicate all allocate, this
// also holds that the derivation does none of them.
func TestSubContextDoesNotAllocate(t *testing.T) {
	m := defaultMatcher()
	mustView(t, m, 0, "v", example3View())
	q, outs := threeWay()
	qc := m.NewQueryContext(q)
	var buf []spjg.OutputColumn
	derive := func() {
		for _, mask := range threeWayMasks {
			var sub *QueryContext
			sub, buf = subOf(qc, outs, buf, mask)
			if k := sub.Keys(); k.SkipSPJ && mask == 4 {
				t.Fatal("no view over lineitem is known to the dictionary")
			}
		}
	}
	derive()
	if n := testing.AllocsPerRun(100, derive); n != 0 {
		t.Errorf("deriving %d subexpression contexts allocates %v objects, want 0", len(threeWayMasks), n)
	}
}
