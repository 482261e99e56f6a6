package maintain

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matview/internal/faults"
)

// State is a maintained view's health. The optimizer only matches Fresh
// views (a rewrite against a view is only valid while the view equals its
// definition); every other state means the stored rows are untrusted and
// queries must fall back to base-table plans.
//
// Transitions:
//
//	Fresh ──(maintenance failure)──▶ Stale ──(Repair)──▶ Rebuilding
//	Rebuilding ──(rebuild ok)──▶ Fresh
//	Rebuilding ──(rebuild fails)──▶ Stale (backoff) … ──▶ Quarantined
//	Quarantined ──(RepairView force)──▶ Rebuilding
type State int

const (
	// Fresh: the stored rows equal the definition; the view is matchable.
	Fresh State = iota
	// Stale: a maintenance step failed; contents are suspect until repaired.
	Stale
	// Rebuilding: the view is being built (CREATE VIEW, Repair).
	Rebuilding
	// Quarantined: repair failed repeatedly; the view is parked until an
	// operator forces a repair (RepairView with force) or drops it.
	Quarantined
)

func (s State) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Rebuilding:
		return "rebuilding"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ViewError names one view's maintenance failure.
type ViewError struct {
	View string
	Err  error
}

func (e ViewError) Error() string { return e.View + ": " + e.Err.Error() }

// MaintenanceError reports exactly what a partially failed Insert or Delete
// did: which views were brought up to date, which failed (rolled back to
// their committed contents and now Stale), and which were skipped because
// they were already non-Fresh when the statement arrived. If Base is non-nil
// the base-table write itself failed and the whole statement was aborted:
// the table was rolled back to the committed epoch, no view was touched, and
// the epoch did not advance.
type MaintenanceError struct {
	Op    string // "insert" or "delete"
	Table string
	Base  error
	// Updated lists views whose deltas applied cleanly during this call.
	Updated []string
	// Failed lists views whose maintenance failed during this call.
	Failed []ViewError
	// Skipped lists views not attempted (non-Fresh at entry).
	Skipped []string
}

func (e *MaintenanceError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "maintain: %s on %s:", e.Op, e.Table)
	if e.Base != nil {
		fmt.Fprintf(&sb, " base write failed (%v);", e.Base)
	}
	if len(e.Failed) > 0 {
		parts := make([]string, len(e.Failed))
		for i, f := range e.Failed {
			parts[i] = f.Error()
		}
		fmt.Fprintf(&sb, " %d view(s) failed and are stale [%s];", len(e.Failed), strings.Join(parts, "; "))
	}
	fmt.Fprintf(&sb, " %d updated, %d skipped", len(e.Updated), len(e.Skipped))
	return sb.String()
}

// Unwrap exposes the underlying causes to errors.Is/As.
func (e *MaintenanceError) Unwrap() []error {
	var errs []error
	if e.Base != nil {
		errs = append(errs, e.Base)
	}
	for _, f := range e.Failed {
		errs = append(errs, f.Err)
	}
	return errs
}

// orNil returns the report as an error only when something actually failed;
// a clean statement (possibly with skipped non-Fresh views) returns nil.
func (e *MaintenanceError) orNil() error {
	if e.Base == nil && len(e.Failed) == 0 {
		return nil
	}
	return e
}

// RepairPolicy tunes the Stale → Fresh recovery loop.
type RepairPolicy struct {
	// MaxAttempts quarantines a view after this many consecutive failed
	// repair attempts.
	MaxAttempts int
	// BackoffBase is the delay after the first failed repair; it doubles per
	// consecutive failure up to BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter adds a random fraction in [0, Jitter) of the delay, decorrelating
	// repair retries across views.
	Jitter float64
}

// DefaultRepairPolicy matches the server defaults: five attempts, 50ms
// doubling to 5s, 50% jitter.
func DefaultRepairPolicy() RepairPolicy {
	return RepairPolicy{MaxAttempts: 5, BackoffBase: 50 * time.Millisecond, BackoffMax: 5 * time.Second, Jitter: 0.5}
}

// viewHealth is the per-view lifecycle record, guarded by Maintainer.stateMu.
type viewHealth struct {
	state       State
	lastErr     error
	attempts    int       // consecutive failed repair attempts
	nextAttempt time.Time // earliest next repair; zero = due immediately
}

// Stats snapshots lifecycle counters for /metrics.
type Stats struct {
	Fresh       int `json:"fresh"`
	Stale       int `json:"stale"`
	Rebuilding  int `json:"rebuilding"`
	Quarantined int `json:"quarantined"`

	// MaintenanceFailures counts per-view delta-application failures.
	MaintenanceFailures int64 `json:"maintenance_failures"`
	RepairAttempts      int64 `json:"repair_attempts"`
	RepairSuccesses     int64 `json:"repair_successes"`
	RepairFailures      int64 `json:"repair_failures"`
	Quarantines         int64 `json:"quarantines"`

	// Degraded is the cumulative time at least one view was non-Fresh.
	Degraded time.Duration `json:"-"`
}

// RepairReport summarizes one Repair pass.
type RepairReport struct {
	// Repaired views went Stale → Rebuilding → Fresh this pass.
	Repaired []string
	// Failed views' rebuild failed; they are Stale again with backoff.
	Failed []ViewError
	// Quarantined views exhausted their repair attempts this pass.
	Quarantined []string
	// Waiting views are Stale but their backoff has not elapsed yet.
	Waiting []string
}

// lifecycle is the Maintainer's health ledger. Insert/Delete/Repair are
// externally serialized (as before), but states are read concurrently by
// health endpoints and the optimizer wiring, so the ledger has its own lock.
type lifecycle struct {
	mu       sync.RWMutex
	health   map[string]*viewHealth
	listener func(view string, from, to State)
	policy   RepairPolicy
	now      func() time.Time
	rng      *rand.Rand // jitter; guarded by mu

	// version counts the changes to the set of views and their states; a
	// maintenance program is compiled for one version.
	version atomic.Uint64

	stats         Stats // counter fields only; state counts derived on read
	nonFresh      int
	degradedSince time.Time
	degradedTotal time.Duration
}

func newLifecycle() *lifecycle {
	return &lifecycle{
		health: map[string]*viewHealth{},
		policy: DefaultRepairPolicy(),
		now:    time.Now,
		rng:    rand.New(rand.NewSource(1)),
	}
}

// SetRepairPolicy replaces the repair policy (zero fields fall back to the
// defaults).
func (m *Maintainer) SetRepairPolicy(p RepairPolicy) {
	def := DefaultRepairPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = def.BackoffMax
	}
	m.lc.mu.Lock()
	defer m.lc.mu.Unlock()
	m.lc.policy = p
}

// SetStateListener installs fn, called (outside the ledger lock) after every
// state transition. The server wires this to the optimizer so non-Fresh
// views stop matching and the catalog epoch invalidates cached plans.
func (m *Maintainer) SetStateListener(fn func(view string, from, to State)) {
	m.lc.mu.Lock()
	defer m.lc.mu.Unlock()
	m.lc.listener = fn
}

// SetClock overrides the lifecycle clock (tests drive backoff schedules
// deterministically with it).
func (m *Maintainer) SetClock(now func() time.Time) {
	m.lc.mu.Lock()
	defer m.lc.mu.Unlock()
	m.lc.now = now
}

// SetFaultInjector arms fault injection on the maintainer's own sites
// (delta evaluation, delta application, aggregate merging, Build).
// Storage sites are armed separately via Database.SetFaultInjector.
func (m *Maintainer) SetFaultInjector(in *faults.Injector) { m.faults = in }

// ViewState returns a view's lifecycle state; ok is false for unknown views.
func (m *Maintainer) ViewState(name string) (state State, ok bool) {
	m.lc.mu.RLock()
	defer m.lc.mu.RUnlock()
	h, ok := m.lc.health[name]
	if !ok {
		return Fresh, false
	}
	return h.state, true
}

// LastError returns the error that last degraded the view, or nil.
func (m *Maintainer) LastError(name string) error {
	m.lc.mu.RLock()
	defer m.lc.mu.RUnlock()
	if h, ok := m.lc.health[name]; ok {
		return h.lastErr
	}
	return nil
}

// ViewsInState returns the names of views currently in state, sorted.
func (m *Maintainer) ViewsInState(s State) []string {
	m.lc.mu.RLock()
	defer m.lc.mu.RUnlock()
	var out []string
	for name, h := range m.lc.health {
		if h.state == s {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the lifecycle counters and current state census.
func (m *Maintainer) Stats() Stats {
	m.lc.mu.RLock()
	defer m.lc.mu.RUnlock()
	s := m.lc.stats
	for _, h := range m.lc.health {
		switch h.state {
		case Fresh:
			s.Fresh++
		case Stale:
			s.Stale++
		case Rebuilding:
			s.Rebuilding++
		case Quarantined:
			s.Quarantined++
		}
	}
	s.Degraded = m.lc.degradedTotal
	if m.lc.nonFresh > 0 {
		s.Degraded += m.lc.now().Sub(m.lc.degradedSince)
	}
	return s
}

// transition moves a registered view to state `to`, maintains the degraded
// clock, and returns the previous state plus the listener to invoke
// (lock-free). An unregistered name — a view dropped meanwhile — is left
// alone.
func (lc *lifecycle) transition(name string, to State, cause error) (from State, notify func()) {
	lc.mu.Lock()
	h := lc.health[name]
	if h == nil {
		lc.mu.Unlock()
		return to, func() {}
	}
	from = h.state
	h.state = to
	lc.version.Add(1)
	if cause != nil {
		h.lastErr = cause
	}
	if to == Fresh {
		h.lastErr = nil
		h.attempts = 0
		h.nextAttempt = time.Time{}
	}
	lc.accountTransition(from, to)
	listener := lc.listener
	lc.mu.Unlock()
	if listener != nil && from != to {
		return from, func() { listener(name, from, to) }
	}
	return from, func() {}
}

// accountTransition maintains the non-Fresh census and degraded stopwatch;
// callers hold lc.mu.
func (lc *lifecycle) accountTransition(from, to State) {
	if (from == Fresh) == (to == Fresh) {
		return
	}
	if from == Fresh {
		if lc.nonFresh == 0 {
			lc.degradedSince = lc.now()
		}
		lc.nonFresh++
		return
	}
	lc.nonFresh--
	if lc.nonFresh == 0 {
		lc.degradedTotal += lc.now().Sub(lc.degradedSince)
	}
}

// register initializes a new view's ledger entry in state st, opening the
// degraded stopwatch if st is not Fresh.
func (lc *lifecycle) register(name string, st State) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.health[name] = &viewHealth{state: st}
	lc.version.Add(1)
	lc.accountTransition(Fresh, st)
}

// drop removes a view from the ledger, closing its degraded window.
func (lc *lifecycle) drop(name string) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if h, ok := lc.health[name]; ok {
		lc.accountTransition(h.state, Fresh)
		delete(lc.health, name)
		lc.version.Add(1)
	}
}

// failView marks a view Stale after a maintenance failure. Quarantined views
// stay quarantined (the failure is recorded); everything else becomes Stale
// and immediately due for repair.
func (m *Maintainer) failView(name string, err error) {
	m.lc.mu.Lock()
	h := m.lc.health[name]
	if h == nil {
		h = &viewHealth{}
		m.lc.health[name] = h
	}
	m.lc.stats.MaintenanceFailures++
	if h.state == Quarantined {
		h.lastErr = err
		m.lc.mu.Unlock()
		return
	}
	from := h.state
	h.state = Stale
	m.lc.version.Add(1)
	h.lastErr = err
	h.nextAttempt = m.lc.now() // due immediately; backoff starts on repair failure
	m.lc.accountTransition(from, Stale)
	listener := m.lc.listener
	m.lc.mu.Unlock()
	if listener != nil && from != Stale {
		listener(name, from, Stale)
	}
}

// repairFailed records a failed repair attempt: exponential backoff with
// jitter, and quarantine once the policy's attempt budget is spent. It
// reports whether the view was quarantined.
func (m *Maintainer) repairFailed(name string, err error) bool {
	m.lc.mu.Lock()
	h := m.lc.health[name]
	if h == nil {
		h = &viewHealth{}
		m.lc.health[name] = h
	}
	from := h.state
	h.attempts++
	h.lastErr = err
	m.lc.stats.RepairFailures++
	quarantined := h.attempts >= m.lc.policy.MaxAttempts
	var to State
	if quarantined {
		to = Quarantined
		m.lc.stats.Quarantines++
	} else {
		to = Stale
		delay := m.lc.policy.BackoffBase << (h.attempts - 1)
		if delay > m.lc.policy.BackoffMax || delay <= 0 {
			delay = m.lc.policy.BackoffMax
		}
		if j := m.lc.policy.Jitter; j > 0 {
			delay += time.Duration(m.lc.rng.Float64() * j * float64(delay))
		}
		h.nextAttempt = m.lc.now().Add(delay)
	}
	h.state = to
	m.lc.version.Add(1)
	m.lc.accountTransition(from, to)
	listener := m.lc.listener
	m.lc.mu.Unlock()
	if listener != nil && from != to {
		listener(name, from, to)
	}
	return quarantined
}

// Repair attempts to rebuild every Stale view whose backoff has elapsed.
// Like Insert and Delete it must be externally serialized with other
// maintenance (the server runs it under its exclusive lock); concurrent
// readers of the ledger (health endpoints, the optimizer wiring) are safe.
func (m *Maintainer) Repair() RepairReport {
	var rep RepairReport
	for _, v := range m.views {
		m.lc.mu.RLock()
		h := m.lc.health[v.Name]
		due := h != nil && h.state == Stale
		waiting := due && m.lc.now().Before(h.nextAttempt)
		m.lc.mu.RUnlock()
		if !due {
			continue
		}
		if waiting {
			rep.Waiting = append(rep.Waiting, v.Name)
			continue
		}
		if err := m.repairOne(v); err != nil {
			if quarantined := m.repairFailed(v.Name, err); quarantined {
				rep.Quarantined = append(rep.Quarantined, v.Name)
			} else {
				rep.Failed = append(rep.Failed, ViewError{v.Name, err})
			}
		} else {
			rep.Repaired = append(rep.Repaired, v.Name)
		}
	}
	return rep
}

// RepairView explicitly rebuilds one view regardless of backoff. Repairing a
// Quarantined view requires force, which also resets its attempt budget.
func (m *Maintainer) RepairView(name string, force bool) error {
	i := m.find(name)
	if i < 0 {
		return fmt.Errorf("maintain: unknown view %q", name)
	}
	v := m.views[i]
	if m.db.View(name) == nil {
		// Its build failed before install: the optimizer never learned of
		// it, so a rebuild here would store rows nothing can match.
		return fmt.Errorf("maintain: view %s was never built; drop it and create it again", name)
	}
	m.lc.mu.Lock()
	h := m.lc.health[name]
	if h != nil && h.state == Quarantined {
		if !force {
			m.lc.mu.Unlock()
			return fmt.Errorf("maintain: view %s is quarantined; repair requires force", name)
		}
		h.attempts = 0
	}
	m.lc.mu.Unlock()
	if err := m.repairOne(v); err != nil {
		m.repairFailed(name, err)
		return err
	}
	return nil
}

// SetState moves a registered view to st without running maintenance, with
// cause as its last error: Install brings a built view Fresh, a failed
// background build quarantines its view, and crash recovery re-imposes the
// health a checkpoint recorded — a view that was Stale or Quarantined when
// the checkpoint was cut comes back untrusted, not silently Fresh. Every
// entry into quarantine counts in Stats. The listener fires so the
// optimizer's matching eligibility tracks the state.
func (m *Maintainer) SetState(name string, st State, cause error) {
	from, notify := m.lc.transition(name, st, cause)
	if st == Quarantined && from != Quarantined {
		m.lc.mu.Lock()
		m.lc.stats.Quarantines++
		m.lc.mu.Unlock()
	}
	notify()
}

// repairOne rebuilds a view the way CREATE VIEW builds one — Build, then
// Install: Stale/Quarantined → Rebuilding → Fresh on success, with the
// rebuilt rows published as a new epoch before the view is announced Fresh.
// On failure the committed contents (stale but consistent) stay, and the
// caller decides between backoff and quarantine.
func (m *Maintainer) repairOne(v *View) error {
	_, notify := m.lc.transition(v.Name, Rebuilding, nil)
	notify()
	m.lc.mu.Lock()
	m.lc.stats.RepairAttempts++
	m.lc.mu.Unlock()
	cs, _, err := m.Build(v)
	if err == nil {
		err = m.Install(v, cs)
	}
	if err != nil {
		return err
	}
	m.lc.mu.Lock()
	m.lc.stats.RepairSuccesses++
	m.lc.mu.Unlock()
	return nil
}

// guard runs one per-view maintenance step, converting panics into errors so
// a panicking expression (or an injected panic) degrades exactly one view
// instead of unwinding the caller.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("maintain: panic during maintenance: %v", r)
		}
	}()
	return f()
}
