//go:build !race

package sqlparser

import "testing"

// TestFingerprintAllocs: one scratch buffer and the key, whatever the
// statement — Fingerprint runs on every /query request.
func TestFingerprintAllocs(t *testing.T) {
	for _, src := range fingerprintEdgeCases {
		if _, err := Fingerprint(src); err != nil {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { Fingerprint(src) }); n > 2 {
			t.Errorf("Fingerprint(%q): %v allocations, want at most 2", src, n)
		}
	}
}
