// Package faults is a deterministic, rule-based fault-injection framework
// for the maintenance and storage write paths. Production code threads an
// *Injector through every mutation site and calls Maybe(site) before (or
// inside) the risky operation; a nil injector is free, so the hooks cost one
// nil check when chaos testing is off.
//
// Injection is seeded: given the same rules and the same sequence of
// Maybe calls, an injector produces the same failures, which is what lets
// the chaos suite shrink a failing run to a reproducible seed. Rules select
// sites by exact name (or "*" for all), fire with a configured probability,
// and can be windowed (skip the first After calls, stop after Limit
// injections) or switched from error returns to panics — the failure mode a
// buggy dependency exhibits rather than the one polite code returns.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Injection sites. Each constant names one guarded mutation in the storage
// engine or the view maintainer; AllSites lists them so a chaos run can
// cover every site without keeping its own registry.
const (
	// SiteStorageInsert guards Table.Insert (fires before the row lands, so
	// an injected fault mid-batch leaves a partially inserted batch).
	SiteStorageInsert = "storage.table.insert"
	// SiteStorageDelete guards Table.DeleteOrds (and DeleteWhere through it).
	SiteStorageDelete = "storage.table.delete"
	// SiteStorageRebuild guards MaterializedView.PatchIndexes — a fault
	// here strikes after the view's rows changed but before its indexes
	// agree, the classic torn-write window.
	SiteStorageRebuild = "storage.view.rebuild-indexes"
	// SiteMaintainDelta guards the delta-query evaluation in Insert/Delete.
	SiteMaintainDelta = "maintain.delta"
	// SiteMaintainApply guards Maintainer.apply (SPJ append/subtract).
	SiteMaintainApply = "maintain.apply"
	// SiteMaintainMergeAgg guards Maintainer.mergeAgg (aggregate folding).
	SiteMaintainMergeAgg = "maintain.merge-agg"
	// SiteMaintainRecompute guards Maintainer.Build, the one computation of a
	// view's rows from scratch: CREATE VIEW, the autopilot and Repair.
	SiteMaintainRecompute = "maintain.recompute"
	// SiteWALAppend guards the WAL record write. An injected fault here
	// models a short write: a prefix of the frame reaches the file (a real
	// torn tail on disk) and the statement fails before fsync.
	SiteWALAppend = "wal.append"
	// SiteWALSync guards the WAL fsync — the classic "disk said no" failure
	// after the bytes were handed to the kernel.
	SiteWALSync = "wal.fsync"
	// SiteWALCheckpointWrite guards checkpoint serialization: a fault leaves
	// a partial temp file behind and the checkpoint is abandoned before the
	// atomic rename, so recovery never sees it.
	SiteWALCheckpointWrite = "wal.checkpoint.write"
	// SiteWALCheckpointRename guards the atomic rename that publishes a
	// checkpoint — the crash window between a fully fsync'd temp file and
	// its appearance under the live name.
	SiteWALCheckpointRename = "wal.checkpoint.rename"
)

// AllSites returns every registered injection site.
func AllSites() []string {
	return []string{
		SiteStorageInsert,
		SiteStorageDelete,
		SiteStorageRebuild,
		SiteMaintainDelta,
		SiteMaintainApply,
		SiteMaintainMergeAgg,
		SiteMaintainRecompute,
		SiteWALAppend,
		SiteWALSync,
		SiteWALCheckpointWrite,
		SiteWALCheckpointRename,
	}
}

// Error is the failure Maybe injects. Call sites propagate it like any other
// error; tests and metrics recognize it with errors.As / IsInjected.
type Error struct {
	Site string
}

func (e *Error) Error() string { return "faults: injected failure at " + e.Site }

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Rule arms one injection behavior.
type Rule struct {
	// Site selects which Maybe calls the rule sees: an exact site name, or
	// "*" for every site.
	Site string
	// Rate is the per-call injection probability in [0, 1].
	Rate float64
	// Panic makes the rule panic with *Error instead of returning it,
	// exercising the recover paths rather than the error paths.
	Panic bool
	// After skips the rule's first After matching calls — e.g. let setup
	// succeed, then fail steady-state traffic.
	After int
	// Limit stops the rule after it has injected Limit faults (0 = no cap).
	Limit int
}

type ruleState struct {
	Rule
	calls    int64
	injected int64
}

// Stats is a snapshot of injector activity.
type Stats struct {
	Calls    int64 // Maybe invocations across all sites
	Injected int64 // faults injected (errors + panics)
	Panics   int64 // injected faults delivered as panics
	// BySite counts injected faults per site.
	BySite map[string]int64
}

// Injector evaluates rules at injection sites. The zero value and a nil
// *Injector are inert; New returns one ready for Add. All methods are safe
// for concurrent use.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*ruleState
	disabled bool
	calls    int64
	injected int64
	panics   int64
	bySite   map[string]int64
	seen     map[string]int64 // Maybe calls per site, injected or not
}

// New returns an empty injector whose randomness derives from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		bySite: map[string]int64{},
		seen:   map[string]int64{},
	}
}

// Add arms a rule. Rules are evaluated in insertion order; the first one
// that fires wins.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &ruleState{Rule: r})
}

// AddAll arms the same rule at every registered site (Rule.Site is ignored).
func (in *Injector) AddAll(r Rule) {
	for _, site := range AllSites() {
		r.Site = site
		in.Add(r)
	}
}

// SetEnabled toggles injection without forgetting the rules — chaos tests
// disable the injector while setting up schema, then arm it for the run.
func (in *Injector) SetEnabled(enabled bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disabled = !enabled
}

// Maybe is the injection point: it returns a *Error (or panics with one, for
// panic rules) when an armed rule fires for site, and nil otherwise. A nil
// injector never fires.
func (in *Injector) Maybe(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.calls++
	in.seen[site]++
	if in.disabled {
		in.mu.Unlock()
		return nil
	}
	for _, r := range in.rules {
		if r.Site != "*" && r.Site != site {
			continue
		}
		r.calls++
		if r.calls <= int64(r.After) {
			continue
		}
		if r.Limit > 0 && r.injected >= int64(r.Limit) {
			continue
		}
		if r.Rate < 1 && in.rng.Float64() >= r.Rate {
			continue
		}
		r.injected++
		in.injected++
		in.bySite[site]++
		err := &Error{Site: site}
		if r.Panic {
			in.panics++
			in.mu.Unlock()
			panic(err)
		}
		in.mu.Unlock()
		return err
	}
	in.mu.Unlock()
	return nil
}

// Stats snapshots injector activity.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{BySite: map[string]int64{}}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := Stats{
		Calls:    in.calls,
		Injected: in.injected,
		Panics:   in.panics,
		BySite:   make(map[string]int64, len(in.bySite)),
	}
	for k, v := range in.bySite {
		s.BySite[k] = v
	}
	return s
}

// SitesSeen returns the sites Maybe has been called at, sorted — the proof a
// chaos run actually reached every guarded mutation.
func (in *Injector) SitesSeen() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.seen))
	for site := range in.seen {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// String summarizes the injector for logs.
func (in *Injector) String() string {
	s := in.Stats()
	return fmt.Sprintf("faults: %d calls, %d injected (%d panics)", s.Calls, s.Injected, s.Panics)
}
