package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is the rule for reporting a tail percentile: at least this many
// samples must lie beyond it, otherwise the estimate is one or two outliers.
const tailSamples = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the p-quantile of an ascending slice the way
// Python's statistics.quantiles(method="exclusive") does, so the quartiles on
// file are the ones the driver's spread check computes.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailPercentile returns the p-th percentile of xs if at least tailSamples
// samples lie beyond it; otherwise it falls back to the highest percentile
// that has tailSamples beyond it (never below the median) and reports which
// one it used.
func tailPercentile(xs []float64, p float64) (value, used float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, p
	}
	used = p
	if float64(n)*(1-p) < tailSamples {
		used = math.Max(0.5, 1-float64(tailSamples)/float64(n))
	}
	// Nearest rank: the smallest sample with at least used*n samples at or
	// below it.
	rank := int(math.Ceil(used*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], used
}

// summary is a median with the spread that goes on file next to it.
type summary struct {
	value, q1, q3 float64
	n             int
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	return summary{value: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: len(s)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover: the
// children's intervals are clipped to the parent and their union, not their
// sum, is subtracted, so overlapping children are not counted twice.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range cs {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return parent.end - parent.start - covered
}
