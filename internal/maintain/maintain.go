// Package maintain implements incremental maintenance of materialized views —
// the second of the paper's three issues ("view maintenance: efficiently
// updating materialized views when base tables are updated", §1) and the
// reason §2 requires every aggregation view to carry a COUNT_BIG(*) column:
// "so deletions can be handled incrementally (when the count becomes zero,
// the group is empty and the row must be deleted)".
//
// The algorithms are the classic delta rules for SPJG views with a single
// changed table instance: the delta query Q(T ← Δ) is evaluated against the
// unchanged remainder of the database; SPJ views append or bag-subtract the
// delta rows; aggregation views merge the delta's partial aggregates into the
// stored groups, inserting new groups and deleting groups whose count reaches
// zero. Views referencing the changed table more than once (self-joins) fall
// back to full recomputation, as production systems also commonly do.
package maintain

import (
	"fmt"

	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/faults"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// View is one maintained materialized view.
type View struct {
	Name string
	Def  *spjg.Query

	// Derived layout for aggregation views: positions of group keys, the
	// count column, and sum columns in the output row.
	isAgg   bool
	keyPos  []int
	cntPos  int
	sumPos  []int
	sumArgs []int // parallel to sumPos; index into Def.Outputs
}

// Maintainer tracks a set of materialized views, applies base-table changes
// to them, and runs each view's health lifecycle (see State): a view whose
// maintenance fails is marked Stale before the statement returns, repaired
// by Repair with backoff, and Quarantined if repairs keep failing.
//
// Insert, Delete, Repair, Register, and Drop must be externally serialized
// (the server runs them under its exclusive lock); the lifecycle ledger —
// ViewState, Stats, ViewsInState — may be read concurrently.
type Maintainer struct {
	db    *storage.Database
	views []*View

	// faults guards the maintainer's own mutation sites; nil outside chaos
	// runs.
	faults *faults.Injector

	lc *lifecycle
}

// New returns a maintainer over the database.
func New(db *storage.Database) *Maintainer {
	return &Maintainer{db: db, lc: newLifecycle()}
}

// Register materializes the view (if not already stored) and starts
// maintaining it. The definition must satisfy the indexable-view rules —
// exactly the restrictions §2 imposes to make incremental maintenance
// possible.
func (m *Maintainer) Register(name string, def *spjg.Query) (*View, error) {
	if err := def.ValidateAsView(); err != nil {
		return nil, err
	}
	v := &View{Name: name, Def: def, isAgg: def.IsAggregate(), cntPos: -1}
	if v.isAgg {
		for i, o := range def.Outputs {
			switch {
			case o.Expr != nil:
				v.keyPos = append(v.keyPos, i)
			case o.Agg != nil && o.Agg.Kind == spjg.AggCountStar:
				v.cntPos = i
			case o.Agg != nil && o.Agg.Kind == spjg.AggSum:
				v.sumPos = append(v.sumPos, i)
				v.sumArgs = append(v.sumArgs, i)
			default:
				return nil, fmt.Errorf("maintain: view %s: unsupported aggregate", name)
			}
		}
		if v.cntPos < 0 {
			return nil, fmt.Errorf("maintain: view %s lacks COUNT_BIG(*)", name)
		}
	}
	if m.db.View(name) == nil {
		if _, err := exec.Materialize(m.db, name, def); err != nil {
			m.db.RollbackView(name)
			return nil, err
		}
	}
	m.views = append(m.views, v)
	m.lc.register(name)
	// Publish the materialization so the committed epoch always contains
	// every registered view (RollbackView relies on that to distinguish
	// "restore committed contents" from "drop a never-committed view").
	if _, err := m.db.CommitDurable(); err != nil {
		m.db.RollbackView(name)
		m.views = m.views[:len(m.views)-1]
		m.lc.drop(name)
		return nil, fmt.Errorf("maintain: commit of view %s failed: %w", name, err)
	}
	return v, nil
}

// Views returns the maintained views.
func (m *Maintainer) Views() []*View { return m.views }

// Drop stops maintaining a view and removes its materialized rows from
// storage; it reports whether the view was registered. A commit failure
// (durable servers whose WAL refused the drop record) restores the view —
// storage, registration, and ledger entry — and returns the error.
func (m *Maintainer) Drop(name string) (bool, error) {
	for i, v := range m.views {
		if v.Name == name {
			m.views = append(m.views[:i], m.views[i+1:]...)
			m.db.DropView(name)
			if _, err := m.db.CommitDurable(); err != nil {
				m.db.RollbackView(name)
				m.views = append(m.views, v)
				return true, fmt.Errorf("maintain: commit of drop view %s failed: %w", name, err)
			}
			m.lc.drop(name)
			return true, nil
		}
	}
	return false, nil
}

// instancesOf counts how many times the view references the table.
func instancesOf(def *spjg.Query, table string) int {
	n := 0
	for _, t := range def.Tables {
		if t.Table.Name == table {
			n++
		}
	}
	return n
}

// Insert appends rows to a base table and incrementally maintains every
// registered view, as one snapshot-to-snapshot commit: deltas are computed
// read-only against the committed epoch, the base write and every successful
// per-view apply are published together as the next epoch, and failures roll
// the affected object back to its committed contents. Concretely:
//
//   - A base-write failure aborts the whole statement. The table head is
//     rolled back, no view is touched, and the epoch does not advance — the
//     returned *MaintenanceError has Base set and nothing in Updated.
//   - A per-view failure does not abort the statement: the failing view is
//     rolled back to its committed (pre-statement) contents — consistent but
//     stale, never torn — and marked Stale before Insert returns; the
//     remaining views and the base write still commit.
//
// Non-Fresh views are not touched (Repair owns them); the returned error
// names exactly which views were updated, failed, or skipped.
func (m *Maintainer) Insert(table string, rows []storage.Row) error {
	t := m.db.Table(table)
	if t == nil {
		return fmt.Errorf("maintain: unknown table %q", table)
	}
	rep := &MaintenanceError{Op: "insert", Table: table}
	// Phase 1 — read-only: compute each eligible single-instance view's delta
	// Q(T ← Δ) against the pre-insert state. Only `table` changes, so
	// evaluation order relative to the base write is irrelevant for these
	// views. Nothing is marked Stale yet: if the base write below aborts, a
	// view whose delta merely failed to compute is still consistent.
	type pending struct {
		v     *View
		delta []storage.Row
	}
	var pendings []pending
	var computeFailed []ViewError
	var selfJoin []*View
	changed := storage.NewOverlay(m.db, table, rows)
	for _, v := range m.views {
		switch instancesOf(v.Def, table) {
		case 0:
			continue
		case 1:
			if st, _ := m.ViewState(v.Name); st != Fresh {
				rep.Skipped = append(rep.Skipped, v.Name)
				continue
			}
			delta, err := m.computeDelta(v, changed)
			if err != nil {
				computeFailed = append(computeFailed, ViewError{v.Name, err})
				continue
			}
			pendings = append(pendings, pending{v, delta})
		default:
			// Self-join views are recomputed after the base insert below.
			selfJoin = append(selfJoin, v)
		}
	}
	// Phase 2 — base write. Failure aborts the statement: the table head is
	// rolled back to the committed epoch, so a mid-batch failure cannot
	// persist a prefix of the batch, and every view stays consistent.
	if err := guard(func() error {
		for _, r := range rows {
			if err := t.Insert(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		m.db.RollbackTable(table)
		rep.Base = fmt.Errorf("maintain: base insert into %s failed: %w", table, err)
		return rep
	}
	// Phase 3 — apply deltas. A failing view rolls back to its committed
	// contents and goes Stale; the statement carries on.
	for _, f := range computeFailed {
		m.failView(f.View, f.Err)
		rep.Failed = append(rep.Failed, f)
	}
	for _, p := range pendings {
		if err := m.applyGuarded(p.v, p.delta, +1); err != nil {
			m.db.RollbackView(p.v.Name)
			m.failView(p.v.Name, err)
			rep.Failed = append(rep.Failed, ViewError{p.v.Name, err})
		} else {
			rep.Updated = append(rep.Updated, p.v.Name)
		}
	}
	// Phase 4 — self-join views: full recompute from the post-insert head. A
	// successful recompute also heals a Stale view; only Quarantined views
	// wait for an operator.
	for _, v := range selfJoin {
		m.recomputeInPlace(v, rep)
	}
	// Phase 5 — publish the base write and every successful view update as
	// one new epoch. Snapshots pinned before this instant keep reading the
	// previous epoch in full. A commit failure (the WAL refused the record)
	// aborts the statement: base and views roll back to the committed epoch,
	// and every view this statement touched is marked Stale — a rolled-back
	// self-join recompute may have healed a Stale view in the ledger, so the
	// restored (pre-statement) contents cannot be trusted as Fresh.
	if _, err := m.db.CommitDurable(); err != nil {
		m.db.RollbackTable(table)
		for _, name := range rep.Updated {
			m.db.RollbackView(name)
			m.failView(name, err)
		}
		rep.Updated = nil
		rep.Base = fmt.Errorf("maintain: commit of insert into %s failed: %w", table, err)
		return rep
	}
	return rep.orNil()
}

// Delete removes the base-table rows satisfying pred and incrementally
// maintains every registered view, with the same transactional contract as
// Insert: a base-write failure rolls the table back and aborts the statement
// with no view touched; a per-view failure rolls that view back to its
// committed contents and marks it Stale; everything that succeeded publishes
// as one new epoch. It returns the number of deleted rows.
//
// pred sees every live row boxed, so the statement costs a full pass over
// the table; DeleteWhere takes the predicate as an expression and does not.
func (m *Maintainer) Delete(table string, pred func(storage.Row) bool) (int, error) {
	return m.deleteRows(table, func(t *storage.Table) ([]storage.Row, error) { return t.DeleteWhere(pred) })
}

// DeleteWhere is Delete for a WHERE clause over the table's columns (nil
// deletes every row). The victims are found the way a scan finds them —
// compiled column predicate, zone maps — and only they are boxed. A clause
// whose evaluation could fail on some row goes row by row instead, counting
// a failing row as not matching.
func (m *Maintainer) DeleteWhere(table string, where expr.Expr) (int, error) {
	return m.deleteRows(table, func(t *storage.Table) ([]storage.Row, error) {
		if ords, ok := exec.MatchOrdinals(t.Store(), where); ok {
			return t.DeleteOrds(ords)
		}
		pred := expr.CompilePredicate(where)
		return t.DeleteWhere(func(r storage.Row) bool {
			ok, err := pred(r)
			return err == nil && ok
		})
	})
}

// deleteRows runs one DELETE: del removes the victims from the base table
// and returns them, then every view is maintained from them.
func (m *Maintainer) deleteRows(table string, del func(*storage.Table) ([]storage.Row, error)) (int, error) {
	t := m.db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("maintain: unknown table %q", table)
	}
	rep := &MaintenanceError{Op: "delete", Table: table}
	var deleted []storage.Row
	err := guard(func() error {
		var derr error
		deleted, derr = del(t)
		return derr
	})
	if err != nil {
		// Rolling the table back to the committed epoch restores rows and
		// indexes alike, so the views stay consistent with it.
		m.db.RollbackTable(table)
		rep.Base = fmt.Errorf("maintain: base delete from %s failed: %w", table, err)
		return 0, rep
	}
	if len(deleted) == 0 {
		return 0, nil
	}
	changed := storage.NewOverlay(m.db, table, deleted)
	for _, v := range m.views {
		switch instancesOf(v.Def, table) {
		case 0:
			continue
		case 1:
			if st, _ := m.ViewState(v.Name); st != Fresh {
				rep.Skipped = append(rep.Skipped, v.Name)
				continue
			}
			// Other tables are unchanged, so Q(T ← Δ) after the base delete
			// equals the delta of the view.
			delta, derr := m.computeDelta(v, changed)
			if derr == nil {
				derr = m.applyGuarded(v, delta, -1)
			}
			if derr != nil {
				m.db.RollbackView(v.Name)
				m.failView(v.Name, derr)
				rep.Failed = append(rep.Failed, ViewError{v.Name, derr})
			} else {
				rep.Updated = append(rep.Updated, v.Name)
			}
		default:
			m.recomputeInPlace(v, rep)
		}
	}
	if _, err := m.db.CommitDurable(); err != nil {
		m.db.RollbackTable(table)
		for _, name := range rep.Updated {
			m.db.RollbackView(name)
			m.failView(name, err)
		}
		rep.Updated = nil
		rep.Base = fmt.Errorf("maintain: commit of delete from %s failed: %w", table, err)
		return 0, rep
	}
	return len(deleted), rep.orNil()
}

// computeDelta evaluates the view's delta query Q(T ← Δ) read-only over
// changed, the statement's zero-copy overlay of the database in which the
// changed rows stand for their table (one overlay serves every view). Panics
// become errors so one broken view cannot unwind the whole statement.
func (m *Maintainer) computeDelta(v *View, changed *storage.Overlay) (delta []storage.Row, err error) {
	err = guard(func() error {
		if ferr := m.faults.Maybe(faults.SiteMaintainDelta); ferr != nil {
			return fmt.Errorf("maintain: delta for %s: %w", v.Name, ferr)
		}
		var rerr error
		delta, rerr = exec.RunQuery(changed, v.Def)
		if rerr != nil {
			return fmt.Errorf("maintain: delta for %s: %w", v.Name, rerr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return delta, nil
}

// applyGuarded folds a computed delta into the stored view with panics
// converted to errors. On error the caller rolls the view back.
func (m *Maintainer) applyGuarded(v *View, delta []storage.Row, sign int64) error {
	return guard(func() error { return m.apply(v, delta, sign) })
}

// recomputeInPlace is the self-join maintenance path: rebuild the view from
// the post-change database, recording the outcome in rep and the lifecycle.
// A failed recompute rolls the view back to its committed contents.
func (m *Maintainer) recomputeInPlace(v *View, rep *MaintenanceError) {
	if st, _ := m.ViewState(v.Name); st == Quarantined {
		rep.Skipped = append(rep.Skipped, v.Name)
		return
	}
	if err := guard(func() error { return m.recompute(v) }); err != nil {
		m.db.RollbackView(v.Name)
		m.failView(v.Name, err)
		rep.Failed = append(rep.Failed, ViewError{v.Name, err})
		return
	}
	if st, _ := m.ViewState(v.Name); st != Fresh {
		_, notify := m.lc.transition(v.Name, Fresh, nil)
		notify()
	}
	rep.Updated = append(rep.Updated, v.Name)
}

// recompute rebuilds a view from scratch (self-join fallback and Repair).
func (m *Maintainer) recompute(v *View) error {
	if err := m.faults.Maybe(faults.SiteMaintainRecompute); err != nil {
		return fmt.Errorf("maintain: recompute %s: %w", v.Name, err)
	}
	_, err := exec.Materialize(m.db, v.Name, v.Def)
	return err
}

// apply merges delta rows into the stored view. sign is +1 for inserts and
// -1 for deletes.
func (m *Maintainer) apply(v *View, delta []storage.Row, sign int64) error {
	if err := m.faults.Maybe(faults.SiteMaintainApply); err != nil {
		return fmt.Errorf("maintain: apply to %s: %w", v.Name, err)
	}
	mv := m.db.View(v.Name)
	if mv == nil {
		return fmt.Errorf("maintain: view %s not materialized", v.Name)
	}
	var err error
	switch {
	case v.isAgg:
		err = m.mergeAgg(v, mv, delta, sign)
	case sign > 0:
		mv.Append(delta)
	default:
		err = bagSubtract(mv, delta, v.Name)
	}
	if err != nil {
		return err
	}
	return mv.PatchIndexes()
}

// appendRowKey appends the composite group/row key of the given columns to
// buf — Value.AppendKey bytes joined by 0x1f, the key layout of a storage
// index. Callers reuse buf across rows.
func appendRowKey(buf []byte, r storage.Row, cols []int) []byte {
	for _, c := range cols {
		buf = r[c].AppendKey(buf)
		buf = append(buf, '\x1f')
	}
	return buf
}

// bagSubtract removes one stored occurrence per delta row (bag semantics),
// finding them through the view's locator over all of its columns: the cost
// follows the delta, not the view.
func bagSubtract(mv *storage.MaterializedView, delta []storage.Row, name string) error {
	cols := make([]int, mv.NumCols)
	for i := range cols {
		cols[i] = i
	}
	loc := mv.Locator(cols)
	// The locator does not see this statement's deletes until PatchIndexes,
	// so the k-th delta row with one key takes the bucket's k-th ordinal.
	taken := map[string]int{}
	ords := make([]int, 0, len(delta))
	var buf []byte
	for _, d := range delta {
		buf = appendRowKey(buf[:0], d, cols)
		stored := loc.ProbeKey(buf)
		k := taken[string(buf)]
		if k >= len(stored) {
			return fmt.Errorf("maintain: view %s: delta removes a row the view does not hold (key %q)", name, buf)
		}
		taken[string(buf)] = k + 1
		ords = append(ords, stored[k])
	}
	mv.Delete(ords)
	return nil
}

// mergeAgg folds the delta's groups into the stored groups: counts and sums
// add (or subtract); groups reaching count zero are removed — the §2
// incremental-deletion rule that COUNT_BIG exists for. A stored group is
// found through the view's locator over the group-by columns (the unique
// clustered key §2 requires), and a delta holds each group once, so the cost
// follows the delta's groups, not the view's.
func (m *Maintainer) mergeAgg(v *View, mv *storage.MaterializedView, delta []storage.Row, sign int64) error {
	if err := m.faults.Maybe(faults.SiteMaintainMergeAgg); err != nil {
		return fmt.Errorf("maintain: merge into %s: %w", v.Name, err)
	}
	loc := mv.Locator(v.keyPos)
	var buf []byte
	for _, d := range delta {
		buf = appendRowKey(buf[:0], d, v.keyPos)
		stored := loc.ProbeKey(buf)
		if len(stored) == 0 {
			if sign < 0 {
				return fmt.Errorf("maintain: view %s: delete delta for unknown group", v.Name)
			}
			mv.Append([]storage.Row{d})
			continue
		}
		i := stored[0]
		row := mv.RowAt(i) // a fresh row: changing it never aliases stored data
		newCnt := row[v.cntPos].Int() + sign*d[v.cntPos].Int()
		if newCnt < 0 {
			return fmt.Errorf("maintain: view %s: group count went negative", v.Name)
		}
		if newCnt == 0 {
			mv.Delete([]int{i})
			continue
		}
		row[v.cntPos] = sqlvalue.NewInt(newCnt)
		for _, sp := range v.sumPos {
			merged, err := mergeSum(row[sp], d[sp], sign)
			if err != nil {
				return fmt.Errorf("maintain: view %s: %w", v.Name, err)
			}
			row[sp] = merged
		}
		mv.Update(i, row)
	}
	return nil
}

// mergeSum combines a stored SUM with a delta SUM. SQL SUM ignores NULLs, so
// a NULL delta leaves the stored value; subtracting from a group whose
// remaining rows are all-NULL cannot be detected without per-group non-null
// counts, so this implementation follows SQL Server's restriction in spirit:
// the workloads here have NOT NULL sum arguments.
func mergeSum(stored, delta sqlvalue.Value, sign int64) (sqlvalue.Value, error) {
	if delta.IsNull() {
		return stored, nil
	}
	if stored.IsNull() {
		if sign > 0 {
			return delta, nil
		}
		return sqlvalue.Null, fmt.Errorf("subtracting from NULL sum")
	}
	if sign > 0 {
		return sqlvalue.Add(stored, delta)
	}
	return sqlvalue.Sub(stored, delta)
}
