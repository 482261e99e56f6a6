// Package autopilot closes the loop between the live query stream and the
// view advisor: a bounded recorder mines the stream into a decayed
// fingerprint histogram (the §3.1.2 statement fingerprint the plan cache
// already computes), and a background controller periodically re-plans the
// materialized-view set against the mined workload and actuates the changes
// through the maintainer's lifecycle — views are created Rebuilding→Fresh so
// traffic never matches a half-built view, and dropped only after their
// decayed benefit stays below a hysteresis threshold.
package autopilot

import (
	"math"
	"sort"
	"sync"
	"time"

	"matview/internal/spjg"
)

// RecorderConfig bounds the workload recorder. Zero fields take defaults.
type RecorderConfig struct {
	// MaxEntries caps the histogram size; the recorder holds at most
	// 2*MaxEntries distinct fingerprints before pruning back down to
	// MaxEntries, so memory stays O(MaxEntries) under millions of distinct
	// statements (default 4096).
	MaxEntries int
	// HalfLife is the exponential-decay half-life of an entry's frequency
	// weight: a statement last seen one half-life ago counts half as much
	// as one seen now, so the histogram tracks the current workload, not
	// its whole history (default 60s).
	HalfLife time.Duration
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 4096
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 60 * time.Second
	}
	return c
}

// WorkloadEntry is one histogram row, as exposed on /autopilot and consumed
// by vmadvisor -workload. Weight is the decayed frequency as of the
// snapshot; Query is the representative parsed form (nil in JSON dumps —
// consumers re-parse SQL against their catalog).
type WorkloadEntry struct {
	Fingerprint string  `json:"fingerprint"`
	SQL         string  `json:"sql"`
	Count       int64   `json:"count"`
	Weight      float64 `json:"weight"`
	// CostEstimate is the optimizer's cost for the current plan (EWMA over
	// recordings, so re-plans after catalog changes shift it smoothly).
	CostEstimate float64 `json:"costEstimate"`
	// ExecMicros is the measured server-side execution time EWMA.
	ExecMicros     float64 `json:"execMicros"`
	LastSeenMicros int64   `json:"lastSeenMicros"`

	Query *spjg.Query `json:"-"`
}

// entry is the mutable histogram cell. weight is the decayed frequency as
// of time `at`; decay is applied lazily on read and update rather than by a
// background ticker.
type entry struct {
	sql        string
	query      *spjg.Query
	count      int64
	weight     float64
	at         time.Time
	optCost    float64
	execMicros float64
	lastSeen   time.Time
}

// Recorder aggregates the query stream into a bounded, decayed histogram
// keyed by statement fingerprint. All methods are safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	cfg       RecorderConfig
	now       func() time.Time
	entries   map[string]*entry
	evictions int64
	total     int64
}

// NewRecorder builds a recorder with the given bounds.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		entries: make(map[string]*entry),
	}
}

// SetClock injects a fake clock for tests. Not safe to call concurrently
// with Record or Snapshot.
func (r *Recorder) SetClock(now func() time.Time) { r.now = now }

// decayedAt returns e's frequency weight as of t.
func (r *Recorder) decayedAt(e *entry, t time.Time) float64 {
	dt := t.Sub(e.at)
	if dt <= 0 {
		return e.weight
	}
	return e.weight * math.Exp2(-float64(dt)/float64(r.cfg.HalfLife))
}

// Record notes one execution of the statement with the given fingerprint.
// query may be nil (plan-cache hits skip the parse); the first non-nil
// query seen becomes the entry's representative parsed form. cost is the
// optimizer's estimate for the plan that ran; execDur the measured
// server-side execution time.
func (r *Recorder) Record(fingerprint, sql string, query *spjg.Query, cost float64, execDur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.total++
	e, ok := r.entries[fingerprint]
	if !ok {
		if len(r.entries) >= 2*r.cfg.MaxEntries {
			r.evictLocked(now)
		}
		e = &entry{sql: sql}
		r.entries[fingerprint] = e
	}
	if e.query == nil && query != nil {
		e.query = query
		e.sql = sql
	}
	e.count++
	e.weight = r.decayedAt(e, now) + 1
	e.at = now
	e.lastSeen = now
	// EWMA with a mild step so one outlier measurement doesn't whip the
	// histogram around, but re-plans converge within a few executions.
	const alpha = 0.3
	if e.optCost == 0 {
		e.optCost = cost
	} else {
		e.optCost += alpha * (cost - e.optCost)
	}
	us := float64(execDur.Microseconds())
	if e.execMicros == 0 {
		e.execMicros = us
	} else {
		e.execMicros += alpha * (us - e.execMicros)
	}
}

// evictLocked prunes the histogram from 2*MaxEntries down to MaxEntries,
// keeping the entries with the highest current decayed weight. Amortized
// over the MaxEntries inserts between prunes, eviction is O(log K) per
// insert.
func (r *Recorder) evictLocked(now time.Time) {
	type kw struct {
		key string
		w   float64
	}
	all := make([]kw, 0, len(r.entries))
	for k, e := range r.entries {
		all = append(all, kw{k, r.decayedAt(e, now)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].key < all[j].key // deterministic under weight ties
	})
	for _, v := range all[r.cfg.MaxEntries:] {
		delete(r.entries, v.key)
		r.evictions++
	}
}

// Snapshot returns the top-N entries by current decayed weight, heaviest
// first (topN <= 0 returns everything). The returned entries are copies;
// the histogram keeps accumulating concurrently.
func (r *Recorder) Snapshot(topN int) []WorkloadEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]WorkloadEntry, 0, len(r.entries))
	for k, e := range r.entries {
		out = append(out, WorkloadEntry{
			Fingerprint:    k,
			SQL:            e.sql,
			Count:          e.count,
			Weight:         r.decayedAt(e, now),
			CostEstimate:   e.optCost,
			ExecMicros:     e.execMicros,
			LastSeenMicros: e.lastSeen.UnixMicro(),
			Query:          e.query,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// RecorderStats is the /metrics summary of the recorder.
type RecorderStats struct {
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
	Recorded  int64 `json:"recorded"`
}

// Stats snapshots the recorder counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{Entries: len(r.entries), Evictions: r.evictions, Recorded: r.total}
}
