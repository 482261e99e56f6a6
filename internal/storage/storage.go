// Package storage provides the in-memory storage engine. A base table and a
// materialized view are one kind of stored relation, as in SQL Server (§2):
// rows in a column store with per-block zone maps (see columnar.go) and hash
// indexes over them (the moral equivalent of the unique clustered index on a
// materialized view), kept current by one patch path and published at each
// epoch as one immutable Data (see mvcc.go). They differ only in how they are
// written: a Table takes validated inserts and deletes, a MaterializedView
// the row changes of incremental maintenance. The view-matching algorithm
// itself never reads rows; storage exists so the executor can run both
// original queries and substitutes and so tests can verify that substitutes
// return identical results.
package storage

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"matview/internal/catalog"
	"matview/internal/faults"
	"matview/internal/sqlvalue"
)

// Row is one tuple.
type Row []sqlvalue.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// AppendKey appends the hash-index key of r's cols — each value's AppendKey
// bytes followed by 0x1f, the layout ColumnStore.AppendRowKey writes — or of
// every value of r in order when cols is nil (a probe's key values). Callers
// reuse the buffer across rows and look maps up with string(buf), which Go
// performs without allocating.
func (r Row) AppendKey(dst []byte, cols []int) []byte {
	n := len(cols)
	if cols == nil {
		n = len(r)
	}
	for i := 0; i < n; i++ {
		v := r[i]
		if cols != nil {
			v = r[cols[i]]
		}
		dst = v.AppendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}

// Data is one table's or view's contents at one point in time: a column
// store and the hash indexes over it. Instances handed out by Snapshots are
// immutable; instances from the live *Database alias the head and are only
// safe under the caller's usual serialization.
type Data struct {
	store *ColumnStore

	// indexes by a canonical column-list key.
	indexes map[string]*Index
}

// Store returns the column store for direct columnar access.
func (d *Data) Store() *ColumnStore { return d.store }

// NumRows returns the number of live rows.
func (d *Data) NumRows() int { return d.store.Live() }

// Rows materializes every live row (freshly allocated). The executor's scans
// read columns directly; this is for tests, tools, and the reference
// evaluator.
func (d *Data) Rows() []Row { return d.store.Rows() }

// RowAt materializes row i as a fresh Row.
func (d *Data) RowAt(i int) Row { return d.store.RowAt(i) }

// LookupIndex returns the index on exactly cols, or nil.
func (d *Data) LookupIndex(cols []int) *Index {
	if len(d.indexes) == 0 {
		return nil
	}
	return d.indexes[indexKey(cols)]
}

// relation is the head of a stored relation. A base table and a materialized
// view are stored alike (§2: an indexed view is kept the way a table is):
// rows in a column store, hash indexes over them, and the row changes those
// indexes have not seen yet. A live write reaches an index only through
// patch; every other index write fills a fresh one (buildIndexOn).
type relation struct {
	Data

	what string // how errors name the relation

	// Row changes the indexes have not seen yet: rows at ordinals >= patched
	// are new, those in patchDel are gone, and those in rekeys were taken out
	// of one index before an in-place write changed their key there. reindex
	// catches up.
	patched  int
	patchDel []int
	rekeys   []rekeyed
	buf      []byte // key scratch of rekey

	// locators are the writer's own indexes, on column lists no declared
	// index covers: a view's over its clustered key (§2), through which
	// maintenance finds the stored rows a delta touches, and a table's over
	// the columns a view joins it on, through which a delta probes it. They
	// are never published, so patching them never clones and a rewrite
	// renumbers them in place; whatever else replaces the store (rollback,
	// recompute, repair) drops them and the next Locator call rebuilds one.
	locators []*Index

	// dirty marks uncommitted mutations since the last published epoch.
	dirty bool

	// faults guards the relation's mutations; nil outside chaos runs.
	faults *faults.Injector
}

func newRelation(store *ColumnStore, what string, in *faults.Injector) relation {
	return relation{Data: Data{store: store}, what: what, patched: store.Len(), faults: in}
}

// head lets code written for both *Table and *MaterializedView reach the body.
func (r *relation) head() *relation { return r }

// rekeyed is a row an in-place write took out of an index.
type rekeyed struct {
	idx *Index
	ord int
}

// rekey takes row ord out of every index and locator over column c before an
// in-place write changes the row's value there; the next patch files it again
// under its new key. An index over other columns keeps the row where it is.
func (r *relation) rekey(ord, c int) {
	for _, idx := range r.indexes {
		r.rekeyIn(idx, ord, c)
	}
	for _, loc := range r.locators {
		r.rekeyIn(loc, ord, c)
	}
}

func (r *relation) rekeyIn(idx *Index, ord, c int) {
	// A row past patched is filed by the next patch under whatever key it
	// has then.
	if ord >= r.patched || !slices.Contains(idx.Cols, c) || slices.Contains(r.rekeys, rekeyed{idx, ord}) {
		return
	}
	r.buf = idx.remove(r.store, ord, r.buf)
	r.rekeys = append(r.rekeys, rekeyed{idx, ord})
}

// tombstone marks row ord dead, leaving its index entries to the next patch.
func (r *relation) tombstone(ord int) bool {
	if !r.store.Delete(ord) {
		return false
	}
	r.patchDel = append(r.patchDel, ord)
	return true
}

// BuildIndex creates (or rebuilds) a hash index over cols, after filing the
// pending row changes in the existing ones. A locator over cols is dropped:
// Locator answers with the declared index from now on, so nothing would
// probe it again.
func (r *relation) BuildIndex(cols []int, unique bool) (*Index, error) {
	if err := r.patch(); err != nil {
		return nil, err
	}
	idx, err := buildIndexOn(r.store, cols, unique, r.what)
	if err != nil {
		return nil, err
	}
	if r.indexes == nil {
		r.indexes = map[string]*Index{}
	}
	r.indexes[indexKey(cols)] = idx
	r.locators = slices.DeleteFunc(r.locators, func(loc *Index) bool { return slices.Equal(loc.Cols, cols) })
	r.dirty = true
	return idx, nil
}

// reindex brings every index up to date after the rows changed: the
// ordinals of deleted rows leave their buckets and appended rows join theirs
// — work proportional to the change. When dead rows have piled up the store
// is rewritten instead, which renumbers every row: the published indexes are
// rebuilt over the new store, and the locators, which only the writer reads,
// are caught up and renumbered in place.
func (r *relation) reindex() error {
	if !r.store.rewriteDue() {
		return r.patch()
	}
	var buf []byte
	for _, loc := range r.locators {
		buf, _ = r.patchOne(loc, buf) // a non-unique index refuses nothing
	}
	store := r.store.Rewrite()
	store.clock = r.store.clock
	indexes := make(map[string]*Index, len(r.indexes))
	for key, idx := range r.indexes {
		rebuilt, err := buildIndexOn(store, idx.Cols, idx.Unique, r.what)
		if err != nil {
			return fmt.Errorf("storage: rebuilding index %s: %w", key, err)
		}
		indexes[key] = rebuilt
	}
	renumber := r.store.rewriteOrdinal()
	for _, loc := range r.locators {
		loc.renumber(renumber)
	}
	r.store, r.indexes = store, indexes
	r.patched, r.patchDel, r.rekeys = store.Len(), r.patchDel[:0], r.rekeys[:0]
	return nil
}

// patch applies the pending row changes to every index and locator, and
// refolds the zones in-place writes left stale.
func (r *relation) patch() error {
	r.store.refold()
	n := r.store.Len()
	if r.patched == n && len(r.patchDel) == 0 && len(r.rekeys) == 0 {
		return nil
	}
	var buf []byte
	var err error
	for _, idx := range r.indexes {
		if buf, err = r.patchOne(idx, buf); err != nil {
			return err
		}
	}
	for _, loc := range r.locators {
		if buf, err = r.patchOne(loc, buf); err != nil {
			return err
		}
	}
	r.patched, r.patchDel, r.rekeys = n, r.patchDel[:0], r.rekeys[:0]
	return nil
}

// patchOne applies the pending row changes to idx: removals first, so a
// key a vanished row held is free again before a new row claims it, then
// new rows, then the rows an in-place write re-keyed.
func (r *relation) patchOne(idx *Index, buf []byte) ([]byte, error) {
	for _, ord := range r.patchDel {
		if ord < r.patched {
			buf = idx.remove(r.store, ord, buf)
		}
	}
	for ord := r.patched; ord < r.store.Len(); ord++ {
		if r.store.IsDead(ord) {
			continue
		}
		var ok bool
		if buf, ok = idx.add(r.store, ord, buf); !ok {
			return buf, fmt.Errorf("storage: duplicate key in unique index on %s", r.what)
		}
	}
	for _, rk := range r.rekeys {
		if rk.idx != idx || r.store.IsDead(rk.ord) {
			continue
		}
		var ok bool
		if buf, ok = idx.add(r.store, rk.ord, buf); !ok {
			return buf, fmt.Errorf("storage: duplicate key in unique index on %s", r.what)
		}
	}
	return buf, nil
}

// freeze publishes the head's current contents as an immutable Data.
func (r *relation) freeze() *Data {
	return &Data{store: r.store.Freeze(), indexes: shareIndexes(r.indexes)}
}

// thaw makes the published d the head again, discarding every change since.
// It is header copying only: the head re-adopts the published arrays, and
// its next appends overwrite whatever the discarded statement left beyond
// the published length.
func (r *relation) thaw(d *Data) {
	r.store, r.indexes = d.store.Freeze(), shareIndexes(d.indexes)
	r.patched, r.patchDel, r.rekeys, r.locators, r.dirty = r.store.Len(), nil, nil, nil, false
}

// Locator returns the index the writer probes by cols: the declared index on
// exactly cols when there is one, else its own locator over them, built on
// first use. Either agrees with the rows as of the last index patch: for a
// table, the end of its last write; for a view, its last PatchIndexes.
func (r *relation) Locator(cols []int) *Index {
	if idx := r.LookupIndex(cols); idx != nil {
		return idx
	}
	for _, loc := range r.locators {
		if slices.Equal(loc.Cols, cols) {
			return loc
		}
	}
	// A non-unique build cannot fail.
	loc, _ := buildIndexOn(r.store, cols, false, r.what)
	r.locators = append(r.locators, loc)
	return loc
}

// Table is a base table stored column-major. Its writes are validated
// against the catalog and keep the indexes current statement by statement.
type Table struct {
	Meta *catalog.Table
	relation

	kinds []sqlvalue.Kind // the declared column types
}

func newTable(meta *catalog.Table) *Table {
	kinds := make([]sqlvalue.Kind, len(meta.Columns))
	for i, col := range meta.Columns {
		kinds[i] = col.Type
	}
	return &Table{Meta: meta, relation: newRelation(NewColumnStore(len(meta.Columns)), meta.Name, nil), kinds: kinds}
}

// indexShards is how many maps an index spreads its buckets over; what a
// patch clones after a publish is one shard per key it touches.
const indexShards = 256

var indexSeed = maphash.MakeSeed()

// Index is a hash index over a column list, holding the ordinals of live
// rows only. Unique indexes reject duplicate keys at build time.
type Index struct {
	Cols   []int
	Unique bool

	// shards[h(key)] maps key → row ordinals. shared marks the shards a
	// published snapshot version still reads: the first patch of such a shard
	// clones its map. Bucket slices stay shared: appending beyond a published
	// bucket's length writes fresh locations, and removing an ordinal builds
	// a new bucket.
	shards [indexShards]map[string][]int
	shared [indexShards / 64]uint64
}

func newIndex(cols []int, unique bool) *Index {
	return &Index{Cols: append([]int(nil), cols...), Unique: unique}
}

// share returns a copy of the index for a second owner — a published version
// or, on rollback, the head — and marks every shard shared on both sides, so
// whichever of the two patches one clones it first.
func (idx *Index) share() *Index {
	for w := range idx.shared {
		idx.shared[w] = ^uint64(0)
	}
	cp := *idx
	return &cp
}

// owned returns key's shard for writing, cloned first if a published
// version still reads it.
func (idx *Index) owned(key []byte) map[string][]int {
	s := maphash.Bytes(indexSeed, key) % indexShards
	m := idx.shards[s]
	if bit := uint64(1) << (s % 64); idx.shared[s/64]&bit != 0 || m == nil {
		idx.shared[s/64] &^= bit
		m = maps.Clone(m)
		if m == nil {
			m = map[string][]int{}
		}
		idx.shards[s] = m
	}
	return m
}

// add files row ord of cs, a live row, under its key. A unique index refuses
// a key it already holds and reports false.
func (idx *Index) add(cs *ColumnStore, ord int, buf []byte) ([]byte, bool) {
	buf = cs.AppendRowKey(buf[:0], ord, idx.Cols)
	m := idx.owned(buf)
	if idx.Unique && len(m[string(buf)]) > 0 {
		return buf, false
	}
	m[string(buf)] = append(m[string(buf)], ord)
	return buf, true
}

// remove drops row ord of cs from its key's bucket. A dead row keeps its
// payloads, so the key is still there to read.
func (idx *Index) remove(cs *ColumnStore, ord int, buf []byte) []byte {
	buf = cs.AppendRowKey(buf[:0], ord, idx.Cols)
	m := idx.owned(buf)
	old := m[string(buf)]
	if len(old) <= 1 {
		if len(old) == 1 && old[0] == ord {
			delete(m, string(buf))
		}
		return buf
	}
	kept := make([]int, 0, len(old)-1)
	for _, o := range old {
		if o != ord {
			kept = append(kept, o)
		}
	}
	m[string(buf)] = kept
	return buf
}

// renumber maps every ordinal the index holds through f, in place: only for
// a locator, whose maps and buckets no published version reads.
func (idx *Index) renumber(f func(int) int) {
	for _, m := range idx.shards {
		for _, ords := range m {
			for i, o := range ords {
				ords[i] = f(o)
			}
		}
	}
}

func indexKey(cols []int) string {
	buf := make([]byte, 0, 3*len(cols))
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
	}
	return string(buf)
}

// Insert appends one row; it is InsertRows of a one-row batch.
func (t *Table) Insert(r Row) error { return t.InsertRows([]Row{r}) }

// InsertRows appends a batch of rows (each of the right arity) and files them
// in the indexes with one patch. Every row is checked first — the insert
// fault site, kinds, NOT NULL, unique keys against the index and within the
// batch — so a failed insert leaves both the column store and every index
// untouched.
func (t *Table) InsertRows(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	for _, r := range rows {
		if err := t.faults.Maybe(faults.SiteStorageInsert); err != nil {
			return err
		}
		if err := t.check(r); err != nil {
			return err
		}
	}
	var buf []byte
	for _, idx := range t.indexes {
		if !idx.Unique {
			continue
		}
		var batch map[string]bool // keys earlier rows of the batch claim
		for k, r := range rows {
			buf = r.AppendKey(buf[:0], idx.Cols)
			if len(idx.ProbeKey(buf)) > 0 || batch[string(buf)] {
				return fmt.Errorf("storage: duplicate key in unique index on %s", t.Meta.Name)
			}
			if k < len(rows)-1 {
				if batch == nil {
					batch = make(map[string]bool, len(rows))
				}
				batch[string(buf)] = true
			}
		}
	}
	for _, r := range rows {
		t.store.AppendRow(r)
	}
	t.dirty = true
	return t.reindex() // uniqueness was checked above
}

// check holds one row to the catalog: its arity, no NULL in a NOT NULL
// column, and each value of its column's declared type.
func (t *Table) check(r Row) error {
	if len(r) != len(t.Meta.Columns) {
		return fmt.Errorf("storage: row arity %d != %d columns of %s",
			len(r), len(t.Meta.Columns), t.Meta.Name)
	}
	for i, col := range t.Meta.Columns {
		if r[i].IsNull() {
			if col.NotNull {
				return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Meta.Name, col.Name)
			}
		} else if k := r[i].Kind(); k != col.Type {
			// One stray kind would box the whole column (see column.append).
			return fmt.Errorf("storage: %s value in %s column %s.%s", k, col.Type, t.Meta.Name, col.Name)
		}
	}
	return nil
}

// Tail returns the last k rows of the table — an INSERT's rows, right after
// it — as a batch of the table's column types (ColumnStore.Gather).
func (t *Table) Tail(k int) *ColumnStore {
	n := t.store.Len()
	ords := make([]int, k)
	for i := range ords {
		ords[i] = n - k + i
	}
	return t.store.Gather(ords, t.kinds)
}

// Restore makes cs, a store read from outside the program (a checkpoint
// image), the table's rows after holding it to what Insert checks of each
// row: the column count, each column's kind (the declared type, or
// KindNull while the column holds no value) and no NULL in a NOT NULL
// column. It replaces the table's rows and indexes: build indexes after it.
func (t *Table) Restore(cs *ColumnStore) error {
	if cs.NumCols() != len(t.Meta.Columns) {
		return fmt.Errorf("storage: %d columns restored into the %d of %s",
			cs.NumCols(), len(t.Meta.Columns), t.Meta.Name)
	}
	for i, col := range t.Meta.Columns {
		v := cs.Col(i)
		if v.Kind != sqlvalue.KindNull && v.Kind != col.Type {
			return fmt.Errorf("storage: %s column restored into %s column %s.%s", v.Kind, col.Type, t.Meta.Name, col.Name)
		}
		if col.NotNull && cs.Len() > 0 && (v.Kind == sqlvalue.KindNull || v.Nullable()) {
			return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Meta.Name, col.Name)
		}
	}
	cs.clock = t.store.clock
	t.relation = newRelation(cs, t.Meta.Name, t.faults)
	t.dirty = true
	return nil
}

// buildIndexOn builds a hash index over cols of a column store's live rows.
func buildIndexOn(cs *ColumnStore, cols []int, unique bool, what string) (*Index, error) {
	idx := newIndex(cols, unique)
	var buf []byte
	for ord := 0; ord < cs.Len(); ord++ {
		if cs.IsDead(ord) {
			continue
		}
		var ok bool
		if buf, ok = idx.add(cs, ord, buf); !ok {
			return nil, fmt.Errorf("storage: duplicate key building unique index on %s", what)
		}
	}
	return idx, nil
}

// Probe returns the ordinals of rows whose cols equal the given values.
func (idx *Index) Probe(vals Row) []int {
	var arr [48]byte
	return idx.ProbeKey(vals.AppendKey(arr[:0], nil))
}

// ProbeKey is Probe for a key the caller has already built (Row.AppendKey).
func (idx *Index) ProbeKey(key []byte) []int {
	return idx.shards[maphash.Bytes(indexSeed, key)%indexShards][string(key)]
}

// MaterializedView stores the materialized rows of a view: one column per
// view output, in output order, analogous to the clustered index that
// materializes an indexed view (§2). Secondary indexes over output columns
// can be added, mirroring SQL Server's CREATE INDEX on a view (Example 1).
// Maintenance changes rows first (Append, Delete, SetInt, SetFloat) and then
// catches the indexes up once with PatchIndexes.
type MaterializedView struct {
	Name    string
	NumCols int
	relation
}

func newView(name string, store *ColumnStore, in *faults.Injector) *MaterializedView {
	return &MaterializedView{Name: name, NumCols: store.NumCols(), relation: newRelation(store, "view "+name, in)}
}

// RowCount returns the number of live materialized rows as an int64 (the
// shape cost models and stats want).
func (mv *MaterializedView) RowCount() int64 { return int64(mv.NumRows()) }

// Append appends delta rows to the view.
func (mv *MaterializedView) Append(rows []Row) {
	for _, r := range rows {
		mv.store.AppendRow(r)
	}
	mv.dirty = true
}

// Delete tombstones the rows at the given ordinals.
func (mv *MaterializedView) Delete(ords []int) {
	for _, ord := range ords {
		mv.tombstone(ord)
	}
	mv.dirty = true
}

// SetInt writes x into column c of row ord in place: incremental aggregate
// maintenance changing a stored group's COUNT_BIG or an integer SUM (§2).
// The group keeps its ordinal, so an index over other columns — the view's
// key — is not touched; an index over c has the row re-filed by the next
// PatchIndexes, which also refolds the block's zone. The first write since
// the last commit to a block a published version reads clones that block
// (ColumnStore.own), so readers of the version never see it.
func (mv *MaterializedView) SetInt(ord, c int, x int64) {
	mv.rekey(ord, c)
	mv.store.setInt(ord, c, x)
	mv.dirty = true
}

// SetFloat is SetInt for a DOUBLE column (a SUM over floats).
func (mv *MaterializedView) SetFloat(ord, c int, x float64) {
	mv.rekey(ord, c)
	mv.store.setFloat(ord, c, x)
	mv.dirty = true
}

// PatchIndexes brings every index up to date after the view's rows changed
// (see relation.reindex). An injected fault here models the torn-write
// window: rows already merged, indexes not yet consistent.
func (mv *MaterializedView) PatchIndexes() error {
	if err := mv.faults.Maybe(faults.SiteStorageRebuild); err != nil {
		return err
	}
	return mv.reindex()
}

// Database is a catalog plus table and view storage. The tables/views maps
// and their contents are the mutable head; readers that must not observe
// in-flight mutations pin an epoch with Snapshot() (see mvcc.go). Mutations
// and Commit/Rollback calls must be serialized by the caller (the maintainer
// and server already are); snapshot reads need no coordination.
type Database struct {
	Catalog *catalog.Catalog
	tables  map[string]*Table
	views   map[string]*MaterializedView
	faults  *faults.Injector

	// cur is the most recently committed version; Snapshot() pins it.
	cur atomic.Pointer[dbVersion]
	// viewSetChanged marks an uncommitted PutView/DropView (the view *set*
	// differs from the published one, not just some view's rows).
	viewSetChanged bool

	// verMu guards retained, released and version publication ordering.
	verMu    sync.Mutex
	retained []*dbVersion
	// released holds the versions the leak guard dropped from retained while
	// a reader still pinned them, until it releases.
	released []*dbVersion
	// clock is what the heads' stores read to reuse retired blocks.
	clock reclaimClock

	// commitHook, when set, runs inside Commit after the next version is
	// assembled but before it is published; a non-nil error aborts the
	// publish. The WAL installs it to make statements durable before they
	// become visible.
	commitHook func(epoch uint64) error

	reclaimed atomic.Uint64
	leaked    atomic.Uint64
}

// SetCommitHook installs (or, with nil, removes) the pre-publish commit hook.
// The hook runs on the committer's goroutine with the next epoch number; if
// it returns an error the epoch is not published and the head keeps its
// uncommitted mutations (callers roll them back). Must be called while no
// commit is in flight.
func (db *Database) SetCommitHook(fn func(epoch uint64) error) { db.commitHook = fn }

// SetFaultInjector arms (or, with nil, disarms) fault injection on every
// mutation site in the database: table inserts and deletes, and
// materialized-view index rebuilds. Existing tables and views pick up the
// injector immediately; views materialized later inherit it through PutView.
func (db *Database) SetFaultInjector(in *faults.Injector) {
	db.faults = in
	for _, t := range db.tables {
		t.faults = in
	}
	for _, mv := range db.views {
		mv.faults = in
	}
}

// NewDatabase creates empty storage for every table in the catalog.
func NewDatabase(cat *catalog.Catalog) *Database {
	db := &Database{Catalog: cat, tables: map[string]*Table{}, views: map[string]*MaterializedView{}}
	for _, t := range cat.Tables() {
		db.tables[t.Name] = newTable(t)
		db.tables[t.Name].store.clock = &db.clock
	}
	db.initVersions()
	return db
}

// Table returns the named table's storage, or nil.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// PutView stores (or replaces) a materialized view's rows: cs, which the
// view takes over, in its order. Indexes declared on a previous
// materialization of the same view are rebuilt over the new rows; rows that
// violate a unique one are refused, and the head keeps the previous view and
// its indexes.
func (db *Database) PutView(name string, cs *ColumnStore) (*MaterializedView, error) {
	cs.clock = &db.clock
	mv := newView(name, cs, db.faults)
	if prev, ok := db.views[name]; ok {
		for _, idx := range prev.indexes {
			if _, err := mv.BuildIndex(idx.Cols, idx.Unique); err != nil {
				return nil, fmt.Errorf("storage: the rows of view %s violate its unique index on columns %v", name, idx.Cols)
			}
		}
	}
	mv.dirty = true
	db.views[name] = mv
	db.viewSetChanged = true
	return mv, nil
}

// View returns the named materialized view, or nil.
func (db *Database) View(name string) *MaterializedView { return db.views[name] }

// DropView removes a materialized view; it reports whether it existed.
func (db *Database) DropView(name string) bool {
	if _, ok := db.views[name]; !ok {
		return false
	}
	delete(db.views, name)
	db.viewSetChanged = true
	return true
}

// DeleteOrds removes the rows at the given ordinals and returns them as a
// batch of the table's column types (ColumnStore.Gather), read from the
// payloads their tombstones leave in place; nil when nothing was deleted.
// Each victim costs a tombstone bit and its removal from every index bucket
// that holds it; nothing is moved or boxed. Ordinals that are out of range
// or already dead are ignored.
func (t *Table) DeleteOrds(ords []int) (*ColumnStore, error) {
	if err := t.faults.Maybe(faults.SiteStorageDelete); err != nil {
		return nil, err
	}
	var victims []int
	for _, ord := range ords {
		if t.tombstone(ord) {
			victims = append(victims, ord)
		}
	}
	if len(victims) == 0 {
		return nil, nil
	}
	t.dirty = true
	deleted := t.store.Gather(victims, t.kinds) // before reindex can replace the store
	if err := t.reindex(); err != nil {
		return nil, err
	}
	return deleted, nil
}

// DeleteWhere removes every row satisfying pred, returning the deleted rows
// as DeleteOrds does. It finds them by boxing each live row for the closure —
// the slow locator; a compiled column predicate finds the ordinals without
// (exec.MatchOrdinals) and hands them to DeleteOrds directly.
func (t *Table) DeleteWhere(pred func(Row) bool) (*ColumnStore, error) {
	var ords []int
	scratch := make(Row, t.store.NumCols())
	for i, n := 0, t.store.Len(); i < n; i++ {
		if t.store.IsDead(i) {
			continue
		}
		t.store.MaterializeInto(scratch, i)
		if pred(scratch) {
			ords = append(ords, i)
		}
	}
	return t.DeleteOrds(ords)
}

// RefreshStats updates each catalog table's RowCount to the stored row count,
// so the cost model sees actual sizes after loading.
func (db *Database) RefreshStats() {
	for name, t := range db.tables {
		db.Catalog.Table(name).RowCount = int64(t.NumRows())
	}
}
