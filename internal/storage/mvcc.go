// Epoch-snapshot MVCC. The database publishes an immutable version of every
// table and view at each Commit; readers pin a version with Snapshot() —
// three atomic operations, no locks — and run entire queries against it
// while writers keep mutating the live head. A store is copied on write a
// block at a time (see columnar.go): a block a version reads is not written
// while a snapshot can still read that version, so a version is just
// lengths, block lists, a dead bitmap and index maps. Publishing is
// O(tables × columns) header copying; a write after it clones only the
// blocks, lists, dead bitmap and index shards it changes, a block into one
// an earlier write retired once the horizon has passed it; and a failed
// statement rolls the head back to the published version so an epoch is
// only ever observed fully applied.
//
// Version lifecycle:
//
//	head --Commit--> epoch N (current) --Commit--> epoch N+1, N retained
//	retained, readers drain to 0 --RunVersionGC--> reclaimed
//	retained, reader leaked past maxAge --RunVersionGC--> logged + released
//	released, its reader releases --Commit--> no longer holds the horizon
//
// The horizon is the oldest version a snapshot may still read: the first
// retained or released version that has a reader, else the current one.
// Each Commit moves it forward, never back — a superseded version with no
// reader is never pinned again — and a block the head retired is reused
// once the horizon reaches the first publish that left the block out. A
// force-released version still holds the horizon until its reader
// releases, so a leaked snapshot keeps reading valid blocks; a commit whose
// hook fails moves nothing, so it frees no block the current epoch reads.
package storage

import (
	"cmp"
	"log"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Reader is the executor's read surface: the live head (*Database) and a
// pinned epoch (*Snapshot) both satisfy it, so a plan runs identically
// against either.
type Reader interface {
	// TableData returns the named table's data at this reader's point in
	// time, or nil.
	TableData(name string) *Data
	// ViewData returns the named materialized view's data, or nil.
	ViewData(name string) *Data
}

// IndexDef describes one hash index declaratively — enough for a checkpoint
// to rebuild it on recovery.
type IndexDef struct {
	Cols   []int
	Unique bool
}

// IndexDefs returns the index definitions in deterministic order.
func (d *Data) IndexDefs() []IndexDef {
	if len(d.indexes) == 0 {
		return nil
	}
	keys := make([]string, 0, len(d.indexes))
	for k := range d.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]IndexDef, len(keys))
	for i, k := range keys {
		idx := d.indexes[k]
		out[i] = IndexDef{Cols: append([]int(nil), idx.Cols...), Unique: idx.Unique}
	}
	return out
}

// dbVersion is one published, immutable epoch.
type dbVersion struct {
	epoch uint64
	// seq numbers the publishes 0, 1, 2, …: the epoch, but for the renumbering
	// ForceEpoch does.
	seq    uint64
	tables map[string]*Data
	views  map[string]*Data

	readers      atomic.Int64
	supersededAt time.Time // set (under verMu) when a newer epoch publishes
}

// Snapshot pins one epoch. Every read through it — scans, index probes,
// RowAt — sees exactly the state published by that epoch's Commit,
// regardless of concurrent DML or view maintenance. Release it when done so
// version GC can reclaim superseded epochs.
type Snapshot struct {
	v        *dbVersion
	released atomic.Bool
}

// Epoch returns the pinned epoch number.
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// TableData implements Reader against the pinned epoch.
func (s *Snapshot) TableData(name string) *Data { return s.v.tables[name] }

// ViewData implements Reader against the pinned epoch.
func (s *Snapshot) ViewData(name string) *Data { return s.v.views[name] }

// Tables returns the sorted names of every table in the pinned epoch.
func (s *Snapshot) Tables() []string {
	out := make([]string, 0, len(s.v.tables))
	for name := range s.v.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Views returns the sorted names of every materialized view in the pinned
// epoch.
func (s *Snapshot) Views() []string {
	out := make([]string, 0, len(s.v.views))
	for name := range s.v.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Release unpins the epoch. Idempotent; double release is safe.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.v.readers.Add(-1)
	}
}

// Snapshot returns a handle pinned to the most recently committed epoch.
// Acquisition is O(1) and lock-free: load the current version pointer, bump
// its reader count, and re-check the pointer (retrying the rare race with a
// concurrent publish). Uncommitted head mutations are invisible to it.
func (db *Database) Snapshot() *Snapshot {
	for {
		v := db.cur.Load()
		v.readers.Add(1)
		if db.cur.Load() == v {
			return &Snapshot{v: v}
		}
		v.readers.Add(-1)
	}
}

// Epoch returns the most recently committed epoch number.
func (db *Database) Epoch() uint64 { return db.cur.Load().epoch }

// TableData implements Reader over the live head.
func (db *Database) TableData(name string) *Data { return headData(db.tables, name) }

// ViewData implements Reader over the live head.
func (db *Database) ViewData(name string) *Data { return headData(db.views, name) }

// headData returns the named head's current store and indexes, or nil.
func headData[H interface{ head() *relation }](heads map[string]H, name string) *Data {
	h, ok := heads[name]
	if !ok {
		return nil
	}
	d := h.head().Data
	return &d
}

// shareIndexes returns an independent map of independent *Index structs over
// the same shards as in, every shard marked shared on both sides (see
// Index.share). The head keeps one set of structs, cloning a shard on its
// next patch; a published version's structs are immutable by convention.
func shareIndexes(in map[string]*Index) map[string]*Index {
	if in == nil {
		return nil
	}
	out := make(map[string]*Index, len(in))
	for k, idx := range in {
		out[k] = idx.share()
	}
	return out
}

// initVersions publishes epoch 0 (NewDatabase calls it once).
func (db *Database) initVersions() {
	tables, _ := publish(db.tables, nil, true)
	db.cur.Store(&dbVersion{tables: tables, views: map[string]*Data{}})
}

// publish returns the next version's map of one kind of relation: every
// dirty head frozen, the rest carried over from prev, and the heads it froze.
// With nothing dirty and changed false, prev is the next version's map.
func publish[H interface{ head() *relation }](heads map[string]H, prev map[string]*Data, changed bool) (map[string]*Data, []*relation) {
	for _, h := range heads {
		changed = changed || h.head().dirty
	}
	if !changed {
		return prev, nil
	}
	next := make(map[string]*Data, len(heads))
	var frozen []*relation
	for name, h := range heads {
		r := h.head()
		if d, ok := prev[name]; ok && !r.dirty {
			next[name] = d
			continue
		}
		next[name] = r.freeze()
		frozen = append(frozen, r)
	}
	return next, frozen
}

// Commit publishes every uncommitted head mutation as the next epoch, in one
// atomic pointer swap: a snapshot acquired at any instant sees either all of
// the statement's effects or none. With nothing dirty it is a no-op. It
// returns the current epoch and must be serialized with other mutations
// (the maintainer and server already are).
//
// With a commit hook installed (durable servers), a hook failure silently
// keeps the epoch unpublished; durability-aware callers use CommitDurable
// and roll the head back on error.
func (db *Database) Commit() uint64 {
	epoch, _ := db.CommitDurable()
	return epoch
}

// CommitDurable is Commit with the durability contract surfaced: the commit
// hook (the WAL append+fsync) runs after the next version is assembled but
// before the pointer swap, so a statement is on stable storage before any
// snapshot can observe it. On hook failure nothing is published, the head
// keeps its uncommitted mutations (and its dirty marks), and the previous
// epoch is returned alongside the error; callers restore consistency with
// RollbackTable/RollbackView.
func (db *Database) CommitDurable() (uint64, error) {
	prev := db.cur.Load()
	// Assemble the next version without clearing dirty marks yet: freezing is
	// side-effect-safe (it only marks bitmaps and index maps shared), but the
	// dirty state must survive a hook failure so a retry or rollback still
	// sees which objects diverge from the published epoch.
	tables, frozen := publish(db.tables, prev.tables, false)
	views, frozenViews := publish(db.views, prev.views, db.viewSetChanged)
	frozen = append(frozen, frozenViews...)
	if len(frozen) == 0 && !db.viewSetChanged {
		return prev.epoch, nil
	}
	next := &dbVersion{epoch: prev.epoch + 1, seq: prev.seq + 1, tables: tables, views: views}
	if db.commitHook != nil {
		if err := db.commitHook(next.epoch); err != nil {
			return prev.epoch, err
		}
	}
	for _, r := range frozen {
		r.dirty = false
	}
	db.viewSetChanged = false
	db.verMu.Lock()
	prev.supersededAt = time.Now()
	db.retained = append(db.retained, prev)
	db.cur.Store(next)
	db.advanceHorizon(next)
	db.verMu.Unlock()
	return next.epoch, nil
}

// reclaimClock is what a head's column stores read of their database to
// reuse the blocks they retire (column.retired): the current publish, whose
// successor is the first to leave out a block retired now, and the horizon,
// the oldest publish a snapshot may still read. Only the writer reads it,
// and only Commit moves it.
type reclaimClock struct {
	published uint64
	horizon   uint64
}

// advanceHorizon moves the horizon to the oldest version a snapshot may
// still read, now that cur is next: the first retained one that has readers,
// or a force-released one that still has them, or next. A superseded
// version with no reader is never read again — Snapshot rechecks cur after
// counting itself in — so the horizon only moves forward, and the walk
// starts where it last stopped. Called under verMu.
func (db *Database) advanceHorizon(next *dbVersion) {
	h := next.seq
	i, _ := slices.BinarySearchFunc(db.retained, db.clock.horizon, func(v *dbVersion, seq uint64) int { return cmp.Compare(v.seq, seq) })
	for ; i < len(db.retained); i++ {
		if db.retained[i].readers.Load() > 0 {
			h = db.retained[i].seq
			break
		}
	}
	db.released = slices.DeleteFunc(db.released, func(v *dbVersion) bool { return v.readers.Load() == 0 })
	for _, v := range db.released {
		h = min(h, v.seq)
	}
	db.clock.published, db.clock.horizon = next.seq, h
}

// ForceEpoch overwrites the current version's epoch number. Crash recovery
// uses it to realign the rebuilt database with the epoch recorded in the WAL
// (replay re-commits statements one at a time, but repair/GC epochs that
// published without a log record leave numbering gaps). It must only be
// called while no snapshots are pinned and no commit is in flight — i.e.
// single-threaded recovery.
func (db *Database) ForceEpoch(e uint64) {
	db.verMu.Lock()
	db.cur.Load().epoch = e
	db.verMu.Unlock()
}

// RollbackTable restores the named table's head to the last committed
// version, discarding every uncommitted mutation to it.
func (db *Database) RollbackTable(name string) {
	if t, d := db.tables[name], db.cur.Load().tables[name]; t != nil && d != nil {
		t.thaw(d)
	}
}

// RollbackView restores the named view's head to the last committed version.
// A view that did not exist at the last commit is dropped outright.
func (db *Database) RollbackView(name string) {
	d := db.cur.Load().views[name]
	if d == nil {
		if _, ok := db.views[name]; ok {
			delete(db.views, name)
			db.viewSetChanged = true
		}
		return
	}
	mv := newView(name, d.store, db.faults)
	mv.thaw(d)
	db.views[name] = mv
}

// MVCCStats is a point-in-time summary of the version machinery, exposed on
// /metrics.
type MVCCStats struct {
	// Epoch is the most recently committed epoch.
	Epoch uint64 `json:"epoch"`
	// ActiveReaders counts snapshots currently pinned (any epoch).
	ActiveReaders int64 `json:"active_readers"`
	// RetainedVersions counts superseded epochs not yet reclaimed.
	RetainedVersions int `json:"retained_versions"`
	// OldestSnapshotAgeSeconds is how long the oldest still-pinned superseded
	// epoch has been superseded (0 when none).
	OldestSnapshotAgeSeconds float64 `json:"oldest_snapshot_age_seconds"`
	// VersionsReclaimed counts versions dropped after their readers drained.
	VersionsReclaimed uint64 `json:"versions_reclaimed"`
	// SnapshotsLeaked counts versions force-released by the leak guard.
	SnapshotsLeaked uint64 `json:"snapshots_leaked"`
}

// MVCCStats snapshots the version counters.
func (db *Database) MVCCStats() MVCCStats {
	cur := db.cur.Load()
	st := MVCCStats{
		Epoch:             cur.epoch,
		ActiveReaders:     cur.readers.Load(),
		VersionsReclaimed: db.reclaimed.Load(),
		SnapshotsLeaked:   db.leaked.Load(),
	}
	now := time.Now()
	db.verMu.Lock()
	st.RetainedVersions = len(db.retained)
	for _, v := range db.retained {
		r := v.readers.Load()
		st.ActiveReaders += r
		if r > 0 {
			if age := now.Sub(v.supersededAt).Seconds(); age > st.OldestSnapshotAgeSeconds {
				st.OldestSnapshotAgeSeconds = age
			}
		}
	}
	db.verMu.Unlock()
	return st
}

// RunVersionGC sweeps superseded versions once. Versions are reclaimed
// oldest-first and only while every older version has drained: a reader
// pinning an old epoch blocks reclamation of everything newer until it
// advances (or releases), which keeps the retained list an honest picture of
// what the oldest reader can still reach. A version pinned longer than
// maxAge (0 disables the guard) is treated as leaked: logged, counted, and
// dropped from the retained list — its reader keeps a perfectly valid
// snapshot via its own reference, but the store stops accounting for it.
// It returns how many versions were reclaimed and how many were leaked.
func (db *Database) RunVersionGC(now time.Time, maxAge time.Duration) (reclaimed, leaked int) {
	db.verMu.Lock()
	defer db.verMu.Unlock()
	kept := db.retained[:0]
	blocked := false
	for _, v := range db.retained {
		if blocked {
			kept = append(kept, v)
			continue
		}
		if v.readers.Load() == 0 {
			reclaimed++
			continue
		}
		if maxAge > 0 && now.Sub(v.supersededAt) > maxAge {
			log.Printf("storage: leaked snapshot on epoch %d (%d reader(s), superseded %v ago); releasing the version",
				v.epoch, v.readers.Load(), now.Sub(v.supersededAt).Round(time.Millisecond))
			leaked++
			db.released = append(db.released, v) // still holds the horizon
			continue
		}
		blocked = true
		kept = append(kept, v)
	}
	// Zero the dropped tail so reclaimed versions are not kept alive by the
	// retained slice's backing array.
	for i := len(kept); i < len(db.retained); i++ {
		db.retained[i] = nil
	}
	db.retained = kept
	db.reclaimed.Add(uint64(reclaimed))
	db.leaked.Add(uint64(leaked))
	return reclaimed, leaked
}

// StartVersionGC runs RunVersionGC every interval with the given leak
// deadline until the returned stop function is called.
func (db *Database) StartVersionGC(interval, maxAge time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				db.RunVersionGC(now, maxAge)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
