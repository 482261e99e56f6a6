//go:build !race

package server

import (
	"net/http"
	"runtime"
	"testing"
)

// TestQueryHitAllocs bounds what a plan-cache hit answered by a view seek
// allocates end to end through the handler: the request's own objects
// (decoder, statement text, fingerprint, snapshot pin, response header) and
// the one row it returns — 19 allocations and under 2 KB today, where one
// 164 KB value slab per pipeline stage used to make it 173 KB.
func TestQueryHitAllocs(t *testing.T) {
	f := newHitFixture(t)
	c := newReusedCall("/query")
	i := 0
	hit := func() {
		if code, out := c.do(f.h, f.points[i%len(f.points)]); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, out)
		}
		i++
	}
	if n := testing.AllocsPerRun(200, hit); n > 22 {
		t.Errorf("a point-rollup hit makes %v allocations, want at most 22", n)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b > 4096 {
		t.Errorf("a point-rollup hit allocates %.0f bytes, want at most 4 KB", b)
	}
}
