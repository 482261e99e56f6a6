//go:build !race

package core

import "testing"

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
