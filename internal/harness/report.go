package harness

import (
	"fmt"
	"io"
	"time"
)

// ReportFigure2 prints the optimization-time series of Figure 2 as a table:
// one row per view count, one column per configuration.
func ReportFigure2(w io.Writer, ms []Measurement) {
	byKey := map[string]map[int]Measurement{}
	var counts []int
	seen := map[int]bool{}
	for _, m := range ms {
		if byKey[m.Setting] == nil {
			byKey[m.Setting] = map[int]Measurement{}
		}
		byKey[m.Setting][m.NumViews] = m
		if !seen[m.NumViews] {
			seen[m.NumViews] = true
			counts = append(counts, m.NumViews)
		}
	}
	fmt.Fprintln(w, "Figure 2: Optimization time (seconds, total over all queries) as a function of the number of views")
	fmt.Fprintf(w, "%8s", "views")
	for _, s := range Settings {
		fmt.Fprintf(w, "%16s", s.Name)
	}
	fmt.Fprintln(w)
	for _, n := range counts {
		fmt.Fprintf(w, "%8d", n)
		for _, s := range Settings {
			m, ok := byKey[s.Name][n]
			if !ok {
				fmt.Fprintf(w, "%16s", "-")
				continue
			}
			fmt.Fprintf(w, "%16.3f", m.TotalTime.Seconds())
		}
		fmt.Fprintln(w)
	}
	// Headline numbers the paper quotes.
	full := byKey["Alt&Filter"]
	noFilter := byKey["Alt&NoFilter"]
	if base, ok := full[0]; ok {
		if top, ok2 := full[maxCount(counts)]; ok2 {
			fmt.Fprintf(w, "\nAlt&Filter increase at %d views: %s (paper: ~60%%)\n",
				maxCount(counts), pctIncrease(base.TotalTime, top.TotalTime))
			if top.Queries > 0 {
				fmt.Fprintf(w, "Avg optimization time per query at %d views: %.4fs (paper: ~0.15s on 2001 hardware)\n",
					maxCount(counts), top.TotalTime.Seconds()/float64(top.Queries))
			}
		}
		if nf, ok2 := noFilter[maxCount(counts)]; ok2 {
			if base0, ok3 := noFilter[0]; ok3 {
				fmt.Fprintf(w, "Alt&NoFilter increase at %d views: %s (paper: ~110%%)\n",
					maxCount(counts), pctIncrease(base0.TotalTime, nf.TotalTime))
			}
		}
	}
}

// ReportFigure3 prints the total increase in optimization time and the time
// spent inside the view-matching rule, per view count.
func ReportFigure3(w io.Writer, ms []Measurement) {
	fmt.Fprintln(w, "Figure 3: Total increase in optimization time and time spent in view-matching rule (seconds)")
	fmt.Fprintf(w, "%8s%16s%16s\n", "views", "total increase", "view matching")
	var base time.Duration
	for _, m := range ms {
		if m.NumViews == 0 {
			base = m.TotalTime
			break
		}
	}
	for _, m := range ms {
		inc := m.TotalTime - base
		if inc < 0 {
			inc = 0
		}
		fmt.Fprintf(w, "%8d%16.3f%16.3f\n", m.NumViews, inc.Seconds(), m.RuleTime.Seconds())
	}
}

// ReportFigure4 prints how many of the final plans use materialized views.
func ReportFigure4(w io.Writer, ms []Measurement) {
	fmt.Fprintln(w, "Figure 4: Number of final query plans using materialized views")
	fmt.Fprintf(w, "%8s%16s%12s\n", "views", "plans w/ views", "fraction")
	for _, m := range ms {
		frac := 0.0
		if m.Queries > 0 {
			frac = float64(m.PlansWithViews) / float64(m.Queries)
		}
		fmt.Fprintf(w, "%8d%16d%12.1f%%\n", m.NumViews, m.PlansWithViews, 100*frac)
	}
	fmt.Fprintln(w, "(paper: ~60% at 200 views rising to ~87% at 1000)")
}

// ReportStats prints the in-text statistics of §5: candidate fractions after
// filtering, substitutes per invocation, invocations per query, substitutes
// per query.
func ReportStats(w io.Writer, ms []Measurement) {
	fmt.Fprintln(w, "In-text statistics (§5), Alt&Filter configuration")
	fmt.Fprintf(w, "%8s%14s%12s%12s%12s\n",
		"views", "cand. frac.", "subs/inv", "inv/query", "subs/query")
	for _, m := range ms {
		if m.NumViews == 0 {
			continue
		}
		fmt.Fprintf(w, "%8d%13.2f%%%12.2f%12.1f%12.1f\n",
			m.NumViews, 100*m.CandidateFraction(), m.SubstitutesPerInvocation(),
			m.InvocationsPerQuery(), m.SubstitutesPerQuery())
	}
	fmt.Fprintln(w, "(paper: candidate fraction 0.29%..0.36%; subs/inv 0.04..0.59; inv/query ~17.8; subs/query 0.7..10.5)")
}

func maxCount(counts []int) int {
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

// pctIncrease renders the percentage increase from base to now. A zero (or
// negative) base — a baseline too fast for the clock's resolution — has no
// meaningful ratio, so it reports "n/a" instead of ±Inf.
func pctIncrease(base, now time.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*(now.Seconds()-base.Seconds())/base.Seconds())
}
