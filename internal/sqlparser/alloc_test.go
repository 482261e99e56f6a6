//go:build !race

package sqlparser

import (
	"runtime"
	"testing"
)

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

// TestParseInsertAllocs: parsing the write_maintain INSERT allocates the
// token slice, one slab of rows, the row list and the statement — five
// allocations, about 25 kB — and no expression per literal: reading every
// entry through parseLiteral costs 165 allocations and 33 kB.
func TestParseInsertAllocs(t *testing.T) {
	src := writeInsert()
	if n := testing.AllocsPerRun(100, func() { Parse(cat, src) }); n > 5 {
		t.Errorf("Parse of the 10-row INSERT: %v allocations, want at most 5", n)
	}
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		Parse(cat, src)
	}
	runtime.ReadMemStats(&m1)
	if b := (m1.TotalAlloc - m0.TotalAlloc) / runs; b > 27_500 {
		t.Errorf("Parse of the 10-row INSERT: %d bytes, want at most 27 500", b)
	}
}
