package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// maxTracedRequests caps how many requests per client keep their spans, so a
// traced run's memory stays flat; stage timings are sampled for every
// request regardless.
const maxTracedRequests = 2000

// span is one timed interval at a layer boundary. Spans of one request share
// Req and name the span that caused them in Parent (0 for the root).
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replayed marks a child span that was measured by calling the layer's
	// public function again right after the real request, and placed inside
	// the root in call order: the benchmark records from its own files and
	// cannot open a span inside the program.
	Replayed bool `json:"replayed,omitempty"`
}

// tracer records the spans of one client; it is not shared between
// goroutines. Spans stay in memory until the run ends.
type tracer struct {
	client  int64
	epoch   time.Time
	reqs    int64
	spans   []span
	samples map[string][]float64 // span name → durations in ns
}

func newTracer(client int, epoch time.Time) *tracer {
	return &tracer{client: int64(client), epoch: epoch, samples: map[string][]float64{}}
}

// request is the trace of one operation: a root span around the real call
// and the stages replayed after it.
type request struct {
	t      *tracer
	id     int64
	root   span
	kids   []span
	cursor int64 // where the next replayed child is placed
}

// root opens a request whose real call started at start and took d.
func (t *tracer) root(name string, start time.Time, d time.Duration) *request {
	t.reqs++
	id := t.client<<32 | t.reqs
	s := start.Sub(t.epoch).Nanoseconds()
	return &request{t: t, id: id, cursor: s,
		root: span{Req: id, ID: 1, Name: name, Start: s, End: s + d.Nanoseconds()}}
}

// stage times fn as a replayed child of the root.
func (q *request) stage(name string, fn func()) {
	t := time.Now()
	fn()
	d := time.Since(t).Nanoseconds()
	q.kids = append(q.kids, span{Req: q.id, ID: int64(len(q.kids) + 2), Parent: 1, Name: name,
		Start: q.cursor, End: q.cursor + d, Replayed: true})
	q.cursor += d
}

// finish keeps the spans if the cap allows. With sample set it also samples
// every span's duration, and the root's self time under selfName; a workload
// samples one class of request only, because medians of stages taken over a
// mix of request classes do not add up to the median of the whole.
func (q *request) finish(selfName string, sample bool) {
	t := q.t
	if sample {
		t.samples[q.root.Name] = append(t.samples[q.root.Name], float64(q.root.End-q.root.Start))
		ivs := make([]interval, len(q.kids))
		for i, k := range q.kids {
			t.samples[k.Name] = append(t.samples[k.Name], float64(k.End-k.Start))
			ivs[i] = interval{k.Start, k.End}
		}
		if selfName != "" {
			self := selfTime(interval{q.root.Start, q.root.End}, ivs)
			t.samples[selfName] = append(t.samples[selfName], float64(self))
		}
	}
	if t.reqs <= maxTracedRequests {
		t.spans = append(t.spans, q.root)
		t.spans = append(t.spans, q.kids...)
	}
}

// traceOverhead is 1 − traced/untraced throughput. Both loops time the
// operation itself, so the stages replayed between operations do not count:
// what is left is what recording costs the program.
func traceOverhead(untraced, traced *loopResult) float64 {
	return 1 - rate(traced.lat)/rate(untraced.lat)
}

// mergeSamples joins the per-client stage timings.
func mergeSamples(ts []*tracer) map[string][]float64 {
	out := map[string][]float64{}
	for _, t := range ts {
		for name, s := range t.samples {
			out[name] = append(out[name], s...)
		}
	}
	return out
}

// writeSpans writes the kept spans, one JSON object per line.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
