//go:build !race

package server

import (
	"net/http"
	"runtime"
	"testing"
)

// TestQueryHitAllocs bounds what a plan-cache hit allocates end to end
// through the handler, per request class, at the measured figure plus
// headroom. A point rollup answered by a view seek costs the request's own
// objects (body limit, statement text, fingerprint, snapshot pin, response
// header) and the one row it returns: 12 allocations and 851 bytes. A range
// rollup answered by a view scan binds the filter the plan's first
// execution compiled and runs a pipeline inline over the one block of the
// view its range can match: 27 allocations and 3 253 bytes.
func TestQueryHitAllocs(t *testing.T) {
	f := newHitFixture(t)
	for _, class := range []struct {
		name          string
		bodies        [][]byte
		allocs, bytes float64
	}{{"point", f.points, 14, 1024}, {"range", f.ranges, 29, 3578}} {
		c := newReusedCall("/query")
		i := 0
		hit := func() {
			if code, out := c.do(f.h, class.bodies[i%len(class.bodies)]); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, out)
			}
			i++
		}
		if n := testing.AllocsPerRun(200, hit); n > class.allocs {
			t.Errorf("a %s-rollup hit makes %v allocations, want at most %v", class.name, n, class.allocs)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b > class.bytes {
			t.Errorf("a %s-rollup hit allocates %.0f bytes, want at most %v", class.name, b, class.bytes)
		}
	}
}
