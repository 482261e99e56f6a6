package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// loopSlices is how many consecutive parts of a window are estimated
// separately; their quartiles are the within-run spread that goes on file.
const loopSlices = 8

// quietParts is how many of them, the fastest, the reported numbers are taken
// over; see report.
const quietParts = loopSlices / 2

// loopResult holds what a closed loop measured: every operation's latency in
// issue order, per client.
type loopResult struct {
	poolLen int
	lat     [][]float64 // [client][op] milliseconds
	failed  int
}

// closedLoop runs clients callers that each wait for a reply before sending
// the next operation. Client c walks the pool of poolLen operations round
// robin from its own offset, pass after pass, and stops at the first pass
// boundary after the window has elapsed, so every run measures whole passes
// and the mix of operations is the same whatever the window length. op
// reports how long the operation itself took — the call into the program,
// not the client's work around it — and whether it succeeded. afterPass, if
// set, runs between passes.
func closedLoop(clients int, window time.Duration, poolLen int, op func(client, i int) (time.Duration, bool), afterPass func(client int)) *loopResult {
	res := &loopResult{poolLen: poolLen, lat: make([][]float64, clients)}
	failed := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			off := c * poolLen / clients
			for time.Since(start) < window {
				for k := 0; k < poolLen; k++ {
					i := (off + k) % poolLen
					d, ok := op(c, i)
					res.lat[c] = append(res.lat[c], ms(d))
					if !ok {
						failed[c]++
					}
				}
				if afterPass != nil {
					afterPass(c)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, f := range failed {
		res.failed += f
	}
	return res
}

// count adds a loop's operations and failures to the run's totals; a loop
// that did not run (no second core for the reader) is nil.
func (r *result) count(l *loopResult) {
	if l != nil {
		r.Attempted += l.ops()
		r.Failed += l.failed
	}
}

func (l *loopResult) ops() int {
	n := 0
	for _, c := range l.lat {
		n += len(c)
	}
	return n
}

// slice returns part j of loopSlices of every client's samples. Parts hold
// whole passes when there are enough of them, so that each part sees the
// same mix of operations.
func (l *loopResult) slice(j int) [][]float64 {
	out := make([][]float64, len(l.lat))
	for c, lat := range l.lat {
		cut := func(j int) int { return len(lat) * j / loopSlices }
		if passes := len(lat) / l.poolLen; passes >= loopSlices {
			cut = func(j int) int { return passes * j / loopSlices * l.poolLen }
		}
		out[c] = lat[cut(j):cut(j+1)]
	}
	return out
}

// rate is operations per second of time spent inside operations, summed over
// clients: what a client does between operations is not the program's cost.
func rate(byClient [][]float64) float64 {
	r := 0.0
	for _, lat := range byClient {
		busy := 0.0
		for _, v := range lat {
			busy += v
		}
		if busy > 0 {
			r += float64(len(lat)) / (busy / 1e3)
		}
	}
	return r
}

func flatten(byClient [][]float64) []float64 {
	var out []float64
	for _, c := range byClient {
		out = append(out, c...)
	}
	return out
}

// report records throughput, median and tail latency over the quieter half
// of the window: the quietParts parts with the highest throughput, pooled. Interference on a shared box only ever slows the program down, and
// here it comes in phases of ten seconds to minutes that move a median over
// the window by 10–30 %; the program's own periodic work (collections,
// version GC, checkpoints) recurs inside every part, so dropping the slower
// parts drops the neighbours and keeps the program — the reasoning behind
// taking the minimum of repeated timings, applied to parts long enough to
// hold a tail, and to half the window so that the slow workloads keep the
// 200 samples p95 needs. The quartiles of all the per-part estimates go on file next to
// each value as the spread inside the run.
func (l *loopResult) report(r *result, opsName, p50Name, p95Name string) {
	type part struct {
		byClient [][]float64
		rate     float64
	}
	var parts []part
	var rates, p50s, p95s []float64
	for j := 0; j < loopSlices; j++ {
		p := part{byClient: l.slice(j)}
		if s := flatten(p.byClient); len(s) > 0 {
			p.rate = rate(p.byClient)
			parts = append(parts, p)
			rates = append(rates, p.rate)
			p50s = append(p50s, median(s))
			p95s = append(p95s, quantile(sorted(s), 0.95))
		}
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].rate > parts[j].rate })
	parts = parts[:min(quietParts, len(parts))]
	quiet := make([][]float64, len(l.lat))
	for _, p := range parts {
		for c, lat := range p.byClient {
			quiet[c] = append(quiet[c], lat...)
		}
	}
	all := flatten(quiet)
	const note = "over the quieter half of the window"
	if opsName != "" {
		s := summarize(rates)
		s.value, s.n = rate(quiet), len(all)
		r.setSummary(opsName, s, note)
	}
	p50 := summarize(p50s)
	p50.value, p50.n = median(all), len(all)
	r.setSummary(p50Name, p50, note)
	p95 := summarize(p95s)
	p95.n = len(all)
	var used float64
	p95.value, used = tailPercentile(all, 0.95)
	if used != 0.95 {
		r.setSummary(p95Name, p95, fmt.Sprintf("%s; fewer than %d samples beyond p95 (n=%d): reports p%.1f", note, tailSamples, len(all), used*100))
		return
	}
	r.setSummary(p95Name, p95, note)
}
