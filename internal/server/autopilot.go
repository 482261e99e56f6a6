package server

import (
	"errors"
	"fmt"
	"net/http"

	"matview/internal/autopilot"
	"matview/internal/catalog"
	"matview/internal/maintain"
	"matview/internal/shell"
	"matview/internal/spjg"
)

// This file is the server side of the autopilot loop: the Actuator the
// controller drives, the background create that brings views up
// Rebuilding→Fresh without blocking traffic, and the /autopilot endpoints.
// Every view operation is shell.Session's; this file only chooses the locks.

// EvaluateSelection implements autopilot.Actuator: it runs fn under the
// shared lock with the current catalog and registered-view snapshot, so the
// advisor's costing cannot race DML's catalog-stat refresh or DDL.
func (s *Server) EvaluateSelection(fn func(cat *catalog.Catalog, views []autopilot.ViewInfo)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// View sizes come from the committed epoch, like every other read.
	snap := s.db.Snapshot()
	defer snap.Release()
	var infos []autopilot.ViewInfo
	for _, v := range s.opt.Views() {
		rows := 0.0
		if vd := snap.ViewData(v.Name); vd != nil {
			rows = float64(vd.NumRows())
		}
		infos = append(infos, autopilot.ViewInfo{Name: v.Name, Def: v.Def, Rows: rows})
	}
	fn(s.db.Catalog, infos)
}

// CreateView implements autopilot.Actuator without blocking traffic for the
// build: the view is defined under the write lock (Rebuilding, never
// matched), built under the shared lock concurrently with queries, and
// installed under the write lock. DML that lands in between leaves the rows
// stale, which InstallView refuses; the build then runs again, the last
// attempt under the write lock, where nothing can interleave. A build or
// install that fails quarantines the view until something drops it.
func (s *Server) CreateView(name string, def *spjg.Query) error {
	s.mu.Lock()
	v, err := s.sess.DefineView(name, def)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	const buildAttempts = 3
	for attempt := 1; ; attempt++ {
		last := attempt == buildAttempts
		if last {
			s.mu.Lock()
		} else {
			s.mu.RLock()
		}
		cs, epoch, err := s.sess.Maint.Build(v)
		if !last {
			s.mu.RUnlock()
			s.mu.Lock()
		}
		if err == nil {
			err = s.sess.InstallView(v, cs, epoch)
		}
		if errors.Is(err, shell.ErrStaleBuild) {
			s.mu.Unlock()
			continue
		}
		if err != nil {
			s.sess.Maint.SetState(name, maintain.Quarantined, err)
		}
		s.mu.Unlock()
		return err
	}
}

// DropView implements autopilot.Actuator: the view leaves every registry
// under the write lock (the catalog-epoch bump kills any cached plan that
// embedded it), and its usage counter goes with it.
func (s *Server) DropView(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sess.DropView(name); err != nil {
		return err
	}
	s.viewUseMu.Lock()
	delete(s.viewUse, name)
	s.viewUseMu.Unlock()
	return nil
}

// ViewUsage implements autopilot.Actuator: a snapshot of how many executed
// plans scanned each view since it was registered.
func (s *Server) ViewUsage() map[string]int64 {
	s.viewUseMu.Lock()
	defer s.viewUseMu.Unlock()
	out := make(map[string]int64, len(s.viewUse))
	for k, v := range s.viewUse {
		out[k] = v
	}
	return out
}

// noteViewUse attributes one execution to each view the plan scanned.
func (s *Server) noteViewUse(views []string) {
	if len(views) == 0 {
		return
	}
	s.viewUseMu.Lock()
	for _, v := range views {
		s.viewUse[v]++
	}
	s.viewUseMu.Unlock()
}

// Autopilot exposes the controller (nil when the server runs without one);
// tests and tooling drive Cycle through it.
func (s *Server) Autopilot() *autopilot.Controller { return s.pilot }

// autopilotToggle is the POST /autopilot body: the kill switch.
type autopilotToggle struct {
	Enabled bool `json:"enabled"`
}

func (s *Server) handleAutopilotGet(w http.ResponseWriter, r *http.Request) {
	if s.pilot == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: autopilot not configured"))
		return
	}
	writeJSON(w, http.StatusOK, s.pilot.Status(32))
}

func (s *Server) handleAutopilotPost(w http.ResponseWriter, r *http.Request) {
	if s.pilot == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: autopilot not configured"))
		return
	}
	var req autopilotToggle
	if err := decodeJSON(r, &req); err != nil {
		s.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.pilot.SetEnabled(req.Enabled)
	writeJSON(w, http.StatusOK, map[string]bool{"enabled": s.pilot.Enabled()})
}

// AutopilotMetrics is the /metrics summary of the control loop.
type AutopilotMetrics struct {
	Enabled      bool  `json:"enabled"`
	Cycles       int64 `json:"cycles"`
	Creates      int64 `json:"creates"`
	Drops        int64 `json:"drops"`
	Errors       int64 `json:"errors"`
	Panics       int64 `json:"panics"`
	ManagedViews int   `json:"managed_views"`

	RecorderEntries   int   `json:"recorder_entries"`
	RecorderEvictions int64 `json:"recorder_evictions"`
	Recorded          int64 `json:"recorded"`
}

func (s *Server) autopilotMetrics() *AutopilotMetrics {
	if s.pilot == nil {
		return nil
	}
	st := s.pilot.Status(-1)
	return &AutopilotMetrics{
		Enabled:           st.Enabled,
		Cycles:            st.Cycles,
		Creates:           st.Creates,
		Drops:             st.Drops,
		Errors:            st.Errors,
		Panics:            st.Panics,
		ManagedViews:      len(st.Managed),
		RecorderEntries:   st.Recorder.Entries,
		RecorderEvictions: st.Recorder.Evictions,
		Recorded:          st.Recorder.Recorded,
	}
}
