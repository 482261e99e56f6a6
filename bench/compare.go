package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one (metric, workload) row of a comparison came out.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within-bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies an end-to-end metric's own bound to a parent and a change.
// A move for the worse beyond the bound is worse and one for the better
// beyond it is better, unless either side's recorded spread (quartile
// distance over the median) is wider than the bound: then the difference
// cannot be told from noise and the row is unresolved, not unchanged.
func judge(d decl, parent, change metricValue) (verdict, float64) {
	if parent.Value == 0 {
		return unresolved, 0
	}
	delta := (change.Value - parent.Value) / parent.Value
	if d.Better == "higher" {
		delta = -delta
	}
	// delta > 0 now means worse.
	spread := func(m metricValue) float64 {
		if m.Q1 == nil || m.Q3 == nil || m.Value == 0 {
			return 0
		}
		return (*m.Q3 - *m.Q1) / m.Value
	}
	switch {
	case delta <= d.Bound && delta >= -d.Bound:
		return within, delta
	case spread(parent) > d.Bound || spread(change) > d.Bound:
		return unresolved, delta
	case delta > 0:
		return worse, delta
	default:
		return better, delta
	}
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (end-to-end metric, workload) present in
// both files and returns the exit code: non-zero on any worse row or a
// higher fail_frac.
func compareFiles(parentPath, changePath string, w io.Writer) int {
	parent, err := readRunFile(parentPath)
	if err == nil {
		var change *runFile
		if change, err = readRunFile(changePath); err == nil {
			return compareRuns(parent, change, w)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func compareRuns(parent, change *runFile, w io.Writer) int {
	if parent.Record.Seconds != change.Record.Seconds || parent.Record.Seed != change.Record.Seed {
		fmt.Fprintf(w, "note: runs differ in seed or window (%d/%gs vs %d/%gs)\n",
			parent.Record.Seed, parent.Record.Seconds, change.Record.Seed, change.Record.Seconds)
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %9s  %s\n", "workload", "metric", "parent", "change", "worse by", "verdict")
	for _, name := range workloadNames {
		p, c := parent.Workloads[name], change.Workloads[name]
		if p == nil || c == nil {
			continue
		}
		for _, d := range endToEnd {
			pm, ok1 := p.Metrics[d.Name]
			cm, ok2 := c.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, delta := judge(d, pm, cm)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %+8.1f%%  %s (bound %.0f%%)\n", name, d.Name, pm.Value, cm.Value, delta*100, v, d.Bound*100)
		}
		pf, cf := p.Metrics["fail_frac"].Value, c.Metrics["fail_frac"].Value
		v := within
		if cf > pf {
			v, code = worse, 1
		}
		fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %9s  %s (bound 0)\n", name, "fail_frac", pf, cf, "", v)
	}
	return code
}
