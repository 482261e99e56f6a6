package harness

import (
	"strings"
	"testing"
	"time"
)

// smallConfig keeps unit-test runtime low while exercising every code path.
func smallConfig() Config {
	cfg := DefaultConfig(1)
	cfg.NumViews = 60
	cfg.NumQueries = 25
	cfg.ViewCounts = []int{0, 30, 60}
	return cfg
}

func TestHarnessWorkloadShape(t *testing.T) {
	h := New(smallConfig())
	if len(h.ViewDefs()) != 60 {
		t.Fatalf("views = %d", len(h.ViewDefs()))
	}
	if len(h.Queries()) != 25 {
		t.Fatalf("queries = %d", len(h.Queries()))
	}
	for i, v := range h.ViewDefs() {
		if err := v.ValidateAsView(); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
	}
}

func TestRunPointAllSettings(t *testing.T) {
	h := New(smallConfig())
	for _, s := range Settings {
		m, err := h.RunPoint(s, 60)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if m.Queries != 25 || m.TotalTime <= 0 {
			t.Fatalf("%s: measurement %+v", s.Name, m)
		}
		if m.Stats.Invocations == 0 {
			t.Fatalf("%s: no rule invocations", s.Name)
		}
		if !s.Substitutes && m.PlansWithViews != 0 {
			t.Fatalf("%s: NoAlt produced plans with views", s.Name)
		}
	}
}

func TestZeroViewsBaseline(t *testing.T) {
	h := New(smallConfig())
	m, err := h.RunPoint(Settings[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Invocations != 0 || m.PlansWithViews != 0 {
		t.Fatalf("zero-view baseline: %+v", m.Stats)
	}
}

func TestFilterReducesCandidates(t *testing.T) {
	h := New(smallConfig())
	withF, err := h.RunPoint(Settings[0], 60)
	if err != nil {
		t.Fatal(err)
	}
	withoutF, err := h.RunPoint(Settings[2], 60)
	if err != nil {
		t.Fatal(err)
	}
	if withF.Stats.CandidatesChecked >= withoutF.Stats.CandidatesChecked {
		t.Fatalf("filter tree did not reduce candidates: %d vs %d",
			withF.Stats.CandidatesChecked, withoutF.Stats.CandidatesChecked)
	}
	// The filter tree must not change the matching outcome.
	if withF.Stats.SubstitutesProduced != withoutF.Stats.SubstitutesProduced {
		t.Fatalf("filter changed substitutes: %d vs %d",
			withF.Stats.SubstitutesProduced, withoutF.Stats.SubstitutesProduced)
	}
	if withF.PlansWithViews != withoutF.PlansWithViews {
		t.Fatalf("filter changed plans: %d vs %d", withF.PlansWithViews, withoutF.PlansWithViews)
	}
	// No-filter candidate count is views × invocations exactly.
	if withoutF.Stats.CandidatesChecked != withoutF.Stats.Invocations*60 {
		t.Fatalf("no-filter candidates = %d, want %d",
			withoutF.Stats.CandidatesChecked, withoutF.Stats.Invocations*60)
	}
}

func TestMeasurementDerivedStats(t *testing.T) {
	m := Measurement{
		NumViews: 100,
		Queries:  10,
	}
	m.Stats.Invocations = 200
	m.Stats.CandidatesChecked = 60
	m.Stats.SubstitutesProduced = 20
	if got := m.CandidateFraction(); got != 60.0/200/100 {
		t.Errorf("CandidateFraction = %v", got)
	}
	if got := m.SubstitutesPerInvocation(); got != 0.1 {
		t.Errorf("SubstitutesPerInvocation = %v", got)
	}
	if got := m.InvocationsPerQuery(); got != 20 {
		t.Errorf("InvocationsPerQuery = %v", got)
	}
	if got := m.SubstitutesPerQuery(); got != 2 {
		t.Errorf("SubstitutesPerQuery = %v", got)
	}
	var zero Measurement
	if zero.CandidateFraction() != 0 || zero.SubstitutesPerInvocation() != 0 ||
		zero.InvocationsPerQuery() != 0 || zero.SubstitutesPerQuery() != 0 {
		t.Error("zero measurement must not divide by zero")
	}
}

func TestPlansWithViewsGrows(t *testing.T) {
	// Figure 4's shape in miniature: more views, at least as many plans
	// using them (statistically; with a fixed workload this is monotone in
	// expectation — assert weak monotonicity with slack).
	h := New(smallConfig())
	m30, err := h.RunPoint(Settings[0], 30)
	if err != nil {
		t.Fatal(err)
	}
	m60, err := h.RunPoint(Settings[0], 60)
	if err != nil {
		t.Fatal(err)
	}
	if m60.PlansWithViews+2 < m30.PlansWithViews {
		t.Fatalf("plans with views dropped sharply: %d -> %d", m30.PlansWithViews, m60.PlansWithViews)
	}
	if m60.Stats.SubstitutesProduced < m30.Stats.SubstitutesProduced {
		t.Fatalf("substitutes dropped with more views: %d -> %d",
			m30.Stats.SubstitutesProduced, m60.Stats.SubstitutesProduced)
	}
}

func TestReports(t *testing.T) {
	h := New(smallConfig())
	ms, err := h.RunFigure2(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ReportFigure2(&sb, ms)
	for _, frag := range []string{"Figure 2", "Alt&Filter", "NoAlt&NoFilter"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("Figure 2 report missing %q", frag)
		}
	}
	var full []Measurement
	for _, m := range ms {
		if m.Setting == "Alt&Filter" {
			full = append(full, m)
		}
	}
	sb.Reset()
	ReportFigure3(&sb, full)
	if !strings.Contains(sb.String(), "view matching") {
		t.Error("Figure 3 report malformed")
	}
	sb.Reset()
	ReportFigure4(&sb, full)
	if !strings.Contains(sb.String(), "plans w/ views") {
		t.Error("Figure 4 report malformed")
	}
	sb.Reset()
	ReportStats(&sb, full)
	if !strings.Contains(sb.String(), "subs/query") {
		t.Error("stats report malformed")
	}
}

func TestRunFigure34AndAccessors(t *testing.T) {
	cfg := smallConfig()
	cfg.ViewCounts = []int{0, 30}
	h := New(cfg)
	if h.Catalog() == nil {
		t.Fatal("catalog missing")
	}
	var sb strings.Builder
	ms, err := h.RunFigure34(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if !strings.Contains(sb.String(), "plans_with_views") {
		t.Errorf("progress output: %s", sb.String())
	}
	for _, m := range ms {
		if m.Setting != "Alt&Filter" {
			t.Errorf("setting = %s", m.Setting)
		}
	}
}

func TestPctIncrease(t *testing.T) {
	cases := []struct {
		base, now time.Duration
		want      string
	}{
		{0, time.Second, "n/a"},            // zero base: ratio undefined
		{-time.Second, time.Second, "n/a"}, // negative base: clock skew
		{time.Second, 2 * time.Second, "100%"},
		{time.Second, time.Second, "0%"},
		{2 * time.Second, time.Second, "-50%"},
	}
	for _, c := range cases {
		if got := pctIncrease(c.base, c.now); got != c.want {
			t.Errorf("pctIncrease(%v, %v) = %q, want %q", c.base, c.now, got, c.want)
		}
	}
}
