package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matview/internal/autopilot"
	"matview/internal/exec"
	"matview/internal/faults"
	"matview/internal/maintain"
	"matview/internal/opt"
	"matview/internal/shell"
	"matview/internal/spjg"
	"matview/internal/sqlparser"
	"matview/internal/storage"
	"matview/internal/wal"
)

// Config tunes the service. Zero fields take the DefaultConfig values.
type Config struct {
	// MaxConcurrent bounds in-flight /query and /exec requests; excess
	// requests fail fast with 503 instead of queueing.
	MaxConcurrent int
	// RequestTimeout cancels a request's optimization after this long
	// (<= 0 disables the per-request deadline).
	RequestTimeout time.Duration
	// CacheSize is the plan cache capacity in entries.
	CacheSize int
	// MaxRows caps the rows returned per query response; the full count is
	// still reported (0 = unlimited).
	MaxRows int
	// LatencyWindow is the number of recent requests kept for percentile
	// estimates.
	LatencyWindow int
	// RepairInterval runs the maintainer's Repair pass in the background
	// this often, rebuilding views that failed maintenance (0 disables the
	// loop; Repair can still be invoked explicitly).
	RepairInterval time.Duration
	// GCInterval runs the storage version GC this often, reclaiming
	// superseded epoch versions once their readers drain (0 = default 1s).
	GCInterval time.Duration
	// SnapshotMaxAge is the leaked-snapshot deadline: a reader pinning a
	// superseded epoch longer than this is logged and the version released
	// from accounting instead of retained forever (0 = default 1m).
	SnapshotMaxAge time.Duration
	// Autopilot, when non-nil, runs the closed-loop view controller: the
	// query stream is mined into a decayed histogram (capture always runs),
	// and the controller periodically re-plans the managed view set and
	// creates/drops views through the maintenance lifecycle.
	Autopilot *autopilot.Config
	// DataDir, when non-empty, makes the server durable: committed statements
	// are written to a WAL in this directory before their epochs publish, and
	// startup recovers from the newest checkpoint plus the log tail. Empty
	// keeps the historical pure in-memory behavior.
	DataDir string
	// CheckpointInterval is how often the background checkpointer serializes
	// a pinned snapshot and truncates the log (durable servers only;
	// 0 = default 30s, negative disables the loop — shutdown still writes a
	// final checkpoint).
	CheckpointInterval time.Duration
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		MaxConcurrent:  64,
		RequestTimeout: 5 * time.Second,
		CacheSize:      1024,
		MaxRows:        10000,
		LatencyWindow:  4096,
	}
}

// Server serves SELECT traffic from /query (concurrent, plan-cached) and
// DML/DDL from /exec (serialized through the maintainer so every
// materialized view stays consistent). See the package comment for the
// locking model.
type Server struct {
	cfg   Config
	db    *storage.Database
	sess  *shell.Session // /exec statement handling; guarded by mu (write)
	opt   *opt.Optimizer
	cache *PlanCache

	// mu orders planning against writes: /query holds it shared only for
	// plan-cache lookup, optimization, and snapshot acquisition; execution
	// and row encoding run lock-free against the pinned epoch snapshot.
	// /exec holds it exclusively for the whole statement.
	mu sync.RWMutex

	sem      chan struct{} // admission slots
	gateMu   sync.Mutex    // guards draining flag vs inflight accounting
	draining bool
	inflight sync.WaitGroup

	stopRepair chan struct{} // closes the background repair loop
	stopOnce   sync.Once
	repairWG   sync.WaitGroup
	stopGC     func() // stops the storage version GC loop

	// pilot is the autopilot controller; always constructed (so capture and
	// the /autopilot endpoint work on any server), its loop started only
	// when Config.Autopilot is set.
	pilot     *autopilot.Controller
	pilotLoop bool

	// dur is the durability manager (nil on in-memory servers). ready gates
	// every endpoint except /healthz: a recovering server already listens —
	// so orchestrators see "recovering", not connection-refused — but serves
	// no data until Adopt installs the recovered stack.
	dur     *wal.Manager
	ready   atomic.Bool
	readyAt time.Time

	viewUseMu sync.Mutex
	viewUse   map[string]int64 // per-view matched-execution counters

	start      time.Time
	queries    atomic.Int64
	execs      atomic.Int64
	errors     atomic.Int64
	rejected   atomic.Int64
	timeouts   atomic.Int64
	panics     atomic.Int64
	lat        *latencyRecorder
	optStatsMu sync.Mutex
	optStats   opt.QueryStats
}

// New builds a server over the database, assembling the same
// session stack the interactive shell uses.
func New(db *storage.Database, cfg Config) *Server {
	s := NewRecovering(cfg)
	sess := shell.NewSession(db)
	// Publish any pre-loaded state so the first snapshot readers see it.
	db.Commit()
	s.adopt(db, sess, nil)
	return s
}

// NewRecovering builds a server with no database yet: its handler answers
// /healthz with 503 "recovering" and refuses every other endpoint until
// Adopt installs a recovered stack. Open the listening socket against this
// server, run recovery, then Adopt — orchestrators observe a replica that is
// up but not ready, rather than connection-refused, for the whole replay.
func NewRecovering(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = def.MaxConcurrent
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.LatencyWindow <= 0 {
		cfg.LatencyWindow = def.LatencyWindow
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = time.Second
	}
	if cfg.SnapshotMaxAge <= 0 {
		cfg.SnapshotMaxAge = time.Minute
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	return &Server{
		cfg:        cfg,
		cache:      NewPlanCache(cfg.CacheSize),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		stopRepair: make(chan struct{}),
		start:      time.Now(),
		lat:        newLatencyRecorder(cfg.LatencyWindow),
		viewUse:    map[string]int64{},
	}
}

// Adopt completes a NewRecovering server with the stack wal.Open recovered
// and opens the gate. It must be called exactly once, before Shutdown.
func (s *Server) Adopt(res *wal.OpenResult) {
	s.adopt(res.DB, res.Session, res.Manager)
}

// adopt wires the engine stack into the server, starts the background loops,
// and marks the server ready.
func (s *Server) adopt(db *storage.Database, sess *shell.Session, dur *wal.Manager) {
	s.db = db
	s.sess = sess
	s.opt = sess.Opt
	s.dur = dur
	pcfg := autopilot.Config{}
	if s.cfg.Autopilot != nil {
		pcfg = *s.cfg.Autopilot
	}
	s.pilot = autopilot.NewController(s, pcfg)
	if s.cfg.Autopilot != nil {
		s.pilot.Start()
		s.pilotLoop = true
	}
	if s.cfg.RepairInterval > 0 {
		s.repairWG.Add(1)
		go s.repairLoop(s.cfg.RepairInterval)
	}
	s.stopGC = db.StartVersionGC(s.cfg.GCInterval, s.cfg.SnapshotMaxAge)
	if dur != nil {
		dur.StartCheckpointLoop(s.cfg.CheckpointInterval, s.gatherSpec)
	}
	s.readyAt = time.Now()
	s.ready.Store(true)
}

// gatherSpec pins a checkpointable snapshot under the shared lock, which
// excludes /exec's write lock — so no commit is in flight at the pin and the
// snapshot plus view metadata are mutually consistent.
func (s *Server) gatherSpec() wal.CheckpointSpec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return wal.GatherSpec(s.db, s.sess)
}

// repairLoop periodically rebuilds views that failed maintenance, under the
// same exclusive lock DML uses, until Shutdown.
func (s *Server) repairLoop(interval time.Duration) {
	defer s.repairWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopRepair:
			return
		case <-t.C:
			s.Repair()
		}
	}
}

// Repair runs one maintenance-repair pass (also used by the background
// loop). It serializes against queries and DML exactly like /exec.
func (s *Server) Repair() maintain.RepairReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.sess.Maint.Repair()
	s.db.RefreshStats()
	return rep
}

// Maintainer exposes the view maintainer (for tests and tooling).
func (s *Server) Maintainer() *maintain.Maintainer { return s.sess.Maint }

// SetFaultInjector arms fault injection across the whole stack — storage
// writes and maintenance sites. Call it before serving traffic.
func (s *Server) SetFaultInjector(in *faults.Injector) {
	s.db.SetFaultInjector(in)
	s.sess.Maint.SetFaultInjector(in)
}

// Optimizer exposes the server's optimizer (for tests and tooling).
func (s *Server) Optimizer() *opt.Optimizer { return s.opt }

// Cache exposes the plan cache (for tests and tooling).
func (s *Server) Cache() *PlanCache { return s.cache }

// Handler returns the service's HTTP routes, wrapped in panic recovery: a
// panic anywhere in planning or execution (the expr/sqlvalue fast paths
// panic on type confusion) becomes a 500 JSON response and a panics_total
// tick instead of a dead process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /autopilot", s.handleAutopilotGet)
	mux.HandleFunc("POST /autopilot", s.handleAutopilotPost)
	return s.recoverPanics(s.gateRecovering(mux))
}

// gateRecovering refuses every endpoint except /healthz until recovery
// completes: the rest of the server dereferences the adopted stack, which
// does not exist yet, and half-recovered data must never be served.
func (s *Server) gateRecovering(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() && r.URL.Path != "/healthz" {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errors.New("server: recovering, not ready"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// recoverPanics is the outermost middleware. Recovery is best-effort about
// the response (if the handler already wrote headers the 500 cannot be
// sent), but the process always survives and the panic is always counted.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.errors.Add(1)
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("server: internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Shutdown stops admitting requests (new ones get 503, /healthz reports
// draining), stops the background loops, and waits for in-flight requests to
// finish or for ctx to expire. Durable servers then write a final checkpoint
// and close the log, so a clean restart recovers from the checkpoint alone
// and replays zero records.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gateMu.Lock()
	s.draining = true
	s.gateMu.Unlock()
	s.stopOnce.Do(func() { close(s.stopRepair) })
	done := make(chan struct{})
	var durErr error
	go func() {
		if s.pilotLoop {
			s.pilot.Stop()
		}
		s.inflight.Wait()
		s.repairWG.Wait()
		if s.stopGC != nil {
			s.stopGC()
		}
		if s.dur != nil {
			// Every writer has drained, so this snapshot is the final state;
			// a checkpoint failure is reported but not fatal — the WAL still
			// holds every committed statement for the next recovery.
			durErr = s.dur.Checkpoint(s.gatherSpec())
			if cerr := s.dur.Close(); durErr == nil {
				durErr = cerr
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return durErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit reserves an admission slot, or writes a 503 and reports false. The
// returned release function must be called exactly once.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	s.gateMu.Lock()
	if s.draining {
		s.gateMu.Unlock()
		s.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, errors.New("server: shutting down"))
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.gateMu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("server: saturated, retry later"))
		return nil, false
	}
	s.inflight.Add(1)
	s.gateMu.Unlock()
	return func() {
		<-s.sem
		s.inflight.Done()
	}, true
}

// QueryRequest is the /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Explain returns the plan instead of executing it.
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the /query reply. Rows may be truncated to the server's
// MaxRows; RowCount is always the full result size.
type QueryResponse struct {
	Columns       []string `json:"columns,omitempty"`
	Rows          [][]any  `json:"rows,omitempty"`
	RowCount      int      `json:"rowCount"`
	Truncated     bool     `json:"truncated,omitempty"`
	UsedViews     bool     `json:"usedViews"`
	Cached        bool     `json:"cached"`
	Plan          string   `json:"plan,omitempty"`
	ElapsedMicros int64    `json:"elapsedMicros"`
	// Epoch is the storage epoch the query executed against; all rows are a
	// consistent snapshot of exactly that committed state.
	Epoch uint64 `json:"epoch"`
}

// ExecRequest is the /exec body.
type ExecRequest struct {
	SQL string `json:"sql"`
}

// ExecResponse is the /exec reply; Message is the statement's shell output
// and Epoch the storage epoch after the statement committed.
type ExecResponse struct {
	Message string `json:"message"`
	Epoch   uint64 `json:"epoch"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Epoch/Applied are set on /exec failures: Epoch is the storage epoch
	// after the statement, Applied reports whether the base-table mutation
	// took effect (view maintenance may still have failed — the statement
	// aborts entirely only when the base write itself fails).
	Epoch   uint64 `json:"epoch,omitempty"`
	Applied bool   `json:"applied,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	var req QueryRequest
	if err := decodeRequest(r, &req); err != nil {
		s.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	resp, rows, code, err := s.runQuery(r.Context(), &req)
	// Encoding runs outside the lock — the rows are fresh copies out of a
	// frozen snapshot — and finishes before the status line goes out, so a
	// row JSON cannot carry is still an error response.
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	var elapsed time.Duration
	if err == nil {
		elapsed = time.Since(start)
		resp.ElapsedMicros = elapsed.Microseconds()
		if *bp, err = appendQueryResponse((*bp)[:0], resp, rows); err != nil {
			code = http.StatusInternalServerError
		}
	}
	if err != nil {
		if code == http.StatusGatewayTimeout {
			s.timeouts.Add(1)
		}
		s.errors.Add(1)
		writeError(w, code, err)
		return
	}
	s.lat.observe(elapsed)
	s.queries.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp) // a client that went away is not an error here
}

// planQuery is the read-locked half of /query: plan-cache lookup,
// parse+optimize on a miss, and acquisition of the epoch snapshot the caller
// executes against. The catalog epoch is read before planning so a plan can
// only be cached under a catalog at least as new as the one it was planned
// against; DDL bumps that epoch under the write lock, which cannot overlap
// this read-locked section. The storage snapshot is likewise pinned before
// the lock is released, so it reflects a committed state no older than the
// plan's catalog.
func (s *Server) planQuery(ctx context.Context, key string, req *QueryRequest) (cp *CachedPlan, parsed *spjg.Query, hit bool, snap *storage.Snapshot, code int, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	epoch := s.opt.CatalogEpoch()
	cp, hit = s.cache.Get(key, epoch)
	if !hit {
		st, err := sqlparser.Parse(s.db.Catalog, req.SQL)
		if err != nil {
			return nil, nil, false, nil, http.StatusBadRequest, err
		}
		if st.Query == nil || st.ViewName != "" {
			return nil, nil, false, nil, http.StatusBadRequest,
				errors.New("server: /query accepts SELECT statements only; use /exec for DML and DDL")
		}
		// The deadline bounds optimization, the only stage that consults it:
		// a hit never pays for the timer.
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		res, err := s.opt.OptimizeCtx(ctx, st.Query)
		if err != nil {
			if isCtxErr(err) {
				return nil, nil, false, nil, http.StatusGatewayTimeout, fmt.Errorf("server: optimization timed out: %w", err)
			}
			return nil, nil, false, nil, http.StatusUnprocessableEntity, err
		}
		cols := make([]string, len(st.Query.Outputs))
		for i, oc := range st.Query.Outputs {
			cols[i] = oc.Name
			if cols[i] == "" {
				cols[i] = fmt.Sprintf("col%d", i)
			}
		}
		parsed = st.Query
		cp = &CachedPlan{Res: res, Columns: cols, Views: exec.ViewsReferenced(res.Plan)}
		s.cache.Put(key, epoch, cp)
		s.optStatsMu.Lock()
		s.optStats.Add(res.Stats)
		s.optStatsMu.Unlock()
	}
	return cp, parsed, hit, s.db.Snapshot(), 0, nil
}

// runQuery is the plan-cached SELECT path. Only planning and snapshot
// acquisition hold the shared lock; execution runs against the pinned,
// immutable epoch snapshot and never blocks or observes /exec. The returned
// rows (at most MaxRows of them) are the reply's "rows".
func (s *Server) runQuery(ctx context.Context, req *QueryRequest) (*QueryResponse, []storage.Row, int, error) {
	if strings.TrimSpace(req.SQL) == "" {
		return nil, nil, http.StatusBadRequest, errors.New("server: empty sql")
	}
	key, err := sqlparser.Fingerprint(req.SQL)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	cp, parsed, hit, snap, code, err := s.planQuery(ctx, key, req)
	if err != nil {
		return nil, nil, code, err
	}
	defer snap.Release()
	resp := &QueryResponse{
		Columns:   cp.Columns,
		UsedViews: cp.Res.UsesView,
		Cached:    hit,
		Epoch:     snap.Epoch(),
	}
	if req.Explain {
		resp.Plan = exec.Explain(cp.Res.Plan)
		return resp, nil, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, http.StatusGatewayTimeout, err
	}
	execStart := time.Now()
	rows, err := cp.Res.Plan.Run(snap)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	// Capture hook: every executed statement feeds the usage counters and
	// the autopilot's workload histogram (cache hits record with a nil
	// parse; the entry keeps its first parsed representative).
	s.noteViewUse(cp.Views)
	s.pilot.Recorder().Record(key, req.SQL, parsed, cp.Res.Cost, time.Since(execStart))
	resp.RowCount = len(rows)
	if s.cfg.MaxRows > 0 && len(rows) > s.cfg.MaxRows {
		rows = rows[:s.cfg.MaxRows]
		resp.Truncated = true
	}
	return resp, rows, 0, nil
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	var req ExecRequest
	if err := decodeRequest(r, &req); err != nil {
		s.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	msg, epoch, applied, code, err := s.runExec(&req)
	if err != nil {
		s.errors.Add(1)
		writeJSON(w, code, errorResponse{Error: err.Error(), Epoch: epoch, Applied: applied})
		return
	}
	s.execs.Add(1)
	writeJSON(w, http.StatusOK, &ExecResponse{Message: msg, Epoch: epoch})
}

// runExec is the serialized DML/DDL path. The whole statement — parse,
// maintainer work, catalog-stat refresh, and the epoch bump performed by
// the optimizer's registration paths — happens under the write lock, so no
// query can observe a half-applied DDL or cache a plan under its epoch.
// The returned storage epoch is read after the statement (under the same
// lock), and applied reports whether the base-table mutation committed:
// true on success and on maintenance errors whose Base is nil (views went
// stale but the DML landed); false when the statement aborted entirely.
func (s *Server) runExec(req *ExecRequest) (msg string, epoch uint64, applied bool, code int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := sqlparser.Parse(s.db.Catalog, req.SQL)
	if err != nil {
		return "", s.db.Epoch(), false, http.StatusBadRequest, err
	}
	if st.Insert == nil && st.Delete == nil && st.CreateIndex == nil &&
		st.ViewName == "" && st.DropViewName == "" {
		return "", s.db.Epoch(), false, http.StatusBadRequest,
			errors.New("server: /exec accepts DML and DDL only; use /query for SELECT")
	}
	var sb strings.Builder
	if err := s.sess.ExecuteParsed(st, req.SQL, &sb); err != nil {
		var merr *maintain.MaintenanceError
		applied = errors.As(err, &merr) && merr.Base == nil
		return "", s.db.Epoch(), applied, http.StatusUnprocessableEntity, err
	}
	return strings.TrimSpace(sb.String()), s.db.Epoch(), true, 0, nil
}

// HealthResponse is the /healthz body. Status is "recovering" (startup
// replay in progress; 503 so load balancers hold traffic), "ok", "degraded"
// (some views are not Fresh — queries still succeed, answered from base
// tables), or "draining". Degraded responses list the afflicted views;
// durable servers also report what the startup recovery did and whether the
// WAL has failed (read-only until restart).
type HealthResponse struct {
	Status      string   `json:"status"`
	Epoch       uint64   `json:"epoch"`
	Stale       []string `json:"stale,omitempty"`
	Rebuilding  []string `json:"rebuilding,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	// RecoverySeconds/RecoveryReplayed describe the last startup recovery
	// (durable servers, once ready).
	RecoverySeconds  float64 `json:"recovery_seconds,omitempty"`
	RecoveryReplayed int     `json:"recovery_replayed_records,omitempty"`
	// WALFailed carries the sticky log failure, if any: commits are refused
	// (reads still work) until the process restarts and recovers.
	WALFailed string `json:"wal_failed,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, &HealthResponse{Status: "recovering"})
		return
	}
	s.gateMu.Lock()
	draining := s.draining
	s.gateMu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, &HealthResponse{Status: "draining"})
		return
	}
	h := &HealthResponse{
		Status:      "ok",
		Epoch:       s.db.Epoch(),
		Stale:       s.sess.Maint.ViewsInState(maintain.Stale),
		Rebuilding:  s.sess.Maint.ViewsInState(maintain.Rebuilding),
		Quarantined: s.sess.Maint.ViewsInState(maintain.Quarantined),
	}
	if s.dur != nil {
		rec := s.dur.Recovery()
		h.RecoverySeconds = rec.DurationSeconds
		h.RecoveryReplayed = rec.ReplayedRecords
		if err := s.dur.Failed(); err != nil {
			h.WALFailed = err.Error()
			h.Status = "degraded"
		}
	}
	if len(h.Stale)+len(h.Rebuilding)+len(h.Quarantined) > 0 {
		// Still 200: the service answers every query correctly, just not
		// always from views. Load balancers should not eject a degraded
		// replica; operators should watch the repair metrics.
		h.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// Metrics snapshots the service counters.
func (s *Server) Metrics() Metrics {
	qs, n := s.lat.quantiles(0.50, 0.99)
	s.optStatsMu.Lock()
	os := s.optStats
	s.optStatsMu.Unlock()
	ms := s.sess.Maint.Stats()
	ss := exec.ReadScanStats()
	return Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries:       s.queries.Load(),
		Execs:         s.execs.Load(),
		Errors:        s.errors.Load(),
		Rejected:      s.rejected.Load(),
		Timeouts:      s.timeouts.Load(),
		PanicsTotal:   s.panics.Load(),
		Views:         s.opt.NumViews(),
		CatalogEpoch:  s.opt.CatalogEpoch(),
		PlanCache:     s.cache.Stats(),
		Exec: ExecMetrics{
			BlocksScanned: ss.BlocksScanned,
			BlocksSkipped: ss.BlocksSkipped,
			SkipRate:      ss.SkipRate(),
			RowsProbed:    ss.RowsProbed,
			RowsMatched:   ss.RowsMatched,
			RowsGathered:  ss.RowsGathered,
			ProbeHitRate:  ss.ProbeHitRate(),
		},
		Maintenance: MaintenanceMetrics{
			FreshViews:          ms.Fresh,
			StaleViews:          ms.Stale,
			RebuildingViews:     ms.Rebuilding,
			QuarantinedViews:    ms.Quarantined,
			MaintenanceFailures: ms.MaintenanceFailures,
			RepairAttempts:      ms.RepairAttempts,
			RepairSuccesses:     ms.RepairSuccesses,
			RepairFailures:      ms.RepairFailures,
			Quarantines:         ms.Quarantines,
			DegradedSeconds:     ms.Degraded.Seconds(),
		},
		Latency: LatencyMetrics{
			P50Micros: qs[0].Microseconds(),
			P99Micros: qs[1].Microseconds(),
			Samples:   n,
		},
		Optimizer: OptimizerMetrics{
			Invocations:         os.Invocations,
			CandidatesChecked:   os.CandidatesChecked,
			SubstitutesProduced: os.SubstitutesProduced,
			ViewMatchMicros:     os.ViewMatchTime.Microseconds(),
		},
		Storage:   s.db.MVCCStats(),
		ViewUsage: s.ViewUsage(),
		Autopilot: s.autopilotMetrics(),
		WAL:       s.walMetrics(),
	}
}

// walMetrics maps the durability manager's stats into the /metrics shape
// (nil on in-memory servers).
func (s *Server) walMetrics() *WALMetrics {
	if s.dur == nil {
		return nil
	}
	ws := s.dur.StatsSnapshot()
	return &WALMetrics{
		BytesAppended:           ws.Bytes,
		RecordsAppended:         ws.Records,
		Fsyncs:                  ws.Fsyncs,
		Segments:                ws.Segments,
		Failed:                  ws.Failed,
		Checkpoints:             ws.Checkpoints,
		CheckpointFailures:      ws.CheckpointFailures,
		CheckpointEpoch:         ws.CheckpointEpoch,
		CheckpointAgeSecs:       ws.CheckpointAgeSeconds,
		RecoveryCheckpointEpoch: ws.Recovery.CheckpointEpoch,
		RecoveryReplayedRecords: ws.Recovery.ReplayedRecords,
		RecoveryTornDropped:     ws.Recovery.TornRecordsDropped,
		RecoverySeconds:         ws.Recovery.DurationSeconds,
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
