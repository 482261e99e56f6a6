// Package maintain implements incremental maintenance of materialized views —
// the second of the paper's three issues ("view maintenance: efficiently
// updating materialized views when base tables are updated", §1) and the
// reason §2 requires every aggregation view to carry a COUNT_BIG(*) column:
// "so deletions can be handled incrementally (when the count becomes zero,
// the group is empty and the row must be deleted)".
//
// Every write reaches a view through its delta (the classic SPJG delta
// rules): a view reading the changed table once folds in Q(T ← Δ), one
// reading it n times (a self-join) 2^n − 1 such terms, Δ at a nonempty set
// of the instances and the table as written at the rest (see terms). SPJ
// views append or bag-subtract the delta rows; aggregation views merge the
// delta's partial aggregates into the stored groups, deleting groups whose
// count reaches zero. Only Build computes a view from scratch.
//
// The Maintainer is the registry of record for views: every view the
// optimizer matches or storage holds is one of its views (shell.Session keeps
// the three in step and checks it with CheckViews).
package maintain

import (
	"fmt"
	"slices"

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
	isAgg  bool
	keyPos []int
	cntPos int
	sumPos []int
}

// Maintainer tracks a set of materialized views, applies base-table changes
// to them, and runs each view's health lifecycle (see State): a view whose
// maintenance fails is marked Stale before the statement returns, repaired
// by Repair with backoff, and Quarantined if repairs keep failing.
//
// Every method but the lifecycle readers must be externally serialized (the
// server runs them under its exclusive lock, Build under its shared lock);
// the ledger — ViewState, Stats, ViewsInState — may be read concurrently.
type Maintainer struct {
	db    *storage.Database
	views []*View

	// faults guards the maintainer's own mutation sites; nil outside chaos
	// runs.
	faults *faults.Injector

	lc *lifecycle

	// programs holds each changed table's maintenance program, compiled for
	// the view-set version it names (see program).
	programs map[string]*program
}

// New returns a maintainer over the database.
func New(db *storage.Database) *Maintainer {
	return &Maintainer{db: db, lc: newLifecycle(), programs: map[string]*program{}}
}

// find returns the position of the named view, or -1.
func (m *Maintainer) find(name string) int {
	return slices.IndexFunc(m.views, func(v *View) bool { return v.Name == name })
}

// Define validates def against the indexable-view rules — the restrictions
// §2 imposes to make incremental maintenance possible, and a SUM that
// cannot be NULL — derives its maintenance layout, and registers the view
// as Rebuilding: in the ledger (and on /healthz), skipped by every
// statement, and without stored rows until Install stores the rows Build
// computed. A name the maintainer already holds is refused.
func (m *Maintainer) Define(name string, def *spjg.Query) (*View, error) {
	if m.find(name) >= 0 {
		return nil, fmt.Errorf("maintain: duplicate view %q", name)
	}
	if err := def.ValidateAsView(); err != nil {
		return nil, err
	}
	v := &View{Name: name, Def: def, isAgg: def.IsAggregate(), cntPos: -1}
	if v.isAgg {
		// ValidateAsView admits SUM and one COUNT_BIG(*) besides the keys.
		for i, o := range def.Outputs {
			switch {
			case o.Expr != nil:
				v.keyPos = append(v.keyPos, i)
			case o.Agg.Kind == spjg.AggCountStar:
				v.cntPos = i
			case canBeNull(def, o.Agg.Arg):
				return nil, fmt.Errorf("maintain: view %s: SUM(%s) can be NULL, which deletes cannot maintain", name, expr.Render(o.Agg.Arg, def.Resolver()))
			default:
				v.sumPos = append(v.sumPos, i)
			}
		}
	}
	m.views = append(m.views, v)
	m.lc.register(name, Rebuilding)
	return v, nil
}

// canBeNull reports whether e can be NULL on some row of def: it reads a
// nullable column, holds a NULL literal, or divides (x/0 is NULL). mergeAgg
// cannot tell a group of NULL addends (SUM is NULL) from one summing to 0.
func canBeNull(def *spjg.Query, e expr.Expr) bool {
	switch n := e.(type) {
	case expr.Column:
		return !def.Tables[n.Ref.Tab].Table.Columns[n.Ref.Col].NotNull
	case expr.Const:
		return n.Val.IsNull()
	case expr.Arith:
		if n.Op == expr.Div {
			return true
		}
	}
	return slices.ContainsFunc(expr.Children(e), func(c expr.Expr) bool { return canBeNull(def, c) })
}

// Build computes v's rows read-only against a pinned snapshot of the
// committed epoch, so it may run concurrently with query traffic, and
// returns them as a column store with that epoch: they are v's contents only
// while the database is still at it. It is the one computation of a view
// from scratch (CREATE VIEW, the autopilot, Repair). An aggregate view's
// rows come in the order of its grouping columns, the unique clustered key
// §2 stores such a view under (stable, NULL keys last); Install keeps
// whatever order it is handed, so a view restored from a checkpoint keeps
// the order it had. Panics become errors, and the recompute fault site fires
// here so chaos runs can break a build.
func (m *Maintainer) Build(v *View) (cs *storage.ColumnStore, epoch uint64, err error) {
	err = guard(func() error {
		if ferr := m.faults.Maybe(faults.SiteMaintainRecompute); ferr != nil {
			return fmt.Errorf("maintain: build of %s: %w", v.Name, ferr)
		}
		snap := m.db.Snapshot()
		defer snap.Release()
		epoch = snap.Epoch()
		rows, rerr := exec.RunQuery(snap, v.Def)
		if rerr != nil {
			return rerr
		}
		if len(v.keyPos) > 0 {
			slices.SortStableFunc(rows, func(a, b storage.Row) int {
				for _, c := range v.keyPos {
					if d := compareKey(a[c], b[c]); d != 0 {
						return d
					}
				}
				return 0
			})
		}
		cs = storage.StoreOf(len(v.Def.Outputs), rows)
		return nil
	})
	return cs, epoch, err
}

// compareKey orders two values of one key column, NULL after every value.
func compareKey(a, b sqlvalue.Value) int {
	switch an, bn := a.IsNull(), b.IsNull(); {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	d, _ := sqlvalue.Compare(a, b)
	return d
}

// Install stores cs — Build's result, still current, or a checkpoint's
// image of v — as v's contents, publishes them as one epoch, and brings v
// Fresh. A store of another column count than v's outputs is refused, as
// storage refuses rows that violate a unique index of the view they replace,
// and a commit failure drops the never-committed rows again; either way v is
// left as it was.
func (m *Maintainer) Install(v *View, cs *storage.ColumnStore) error {
	if i := m.find(v.Name); i < 0 || m.views[i] != v {
		return fmt.Errorf("maintain: view %s was dropped before its rows were installed", v.Name)
	}
	if cs.NumCols() != len(v.Def.Outputs) {
		return fmt.Errorf("maintain: %d columns installed into the %d outputs of view %s", cs.NumCols(), len(v.Def.Outputs), v.Name)
	}
	return guard(func() error {
		if _, err := m.db.PutView(v.Name, cs); err != nil {
			return err
		}
		if _, err := m.db.CommitDurable(); err != nil {
			m.db.RollbackView(v.Name)
			return fmt.Errorf("maintain: commit of view %s failed: %w", v.Name, err)
		}
		m.SetState(v.Name, Fresh, nil)
		return nil
	})
}

// Views returns the maintained views.
func (m *Maintainer) Views() []*View { return m.views }

// Drop stops maintaining a view and removes its stored rows, if it has any;
// it reports whether the view was registered. A commit failure (durable
// servers whose WAL refused the drop) restores the rows, keeps the view
// registered, and returns the error.
func (m *Maintainer) Drop(name string) (bool, error) {
	i := m.find(name)
	if i < 0 {
		return false, nil
	}
	if m.db.DropView(name) {
		if _, err := m.db.CommitDurable(); err != nil {
			m.db.RollbackView(name)
			return true, fmt.Errorf("maintain: commit of drop view %s failed: %w", name, err)
		}
	}
	m.views = slices.Delete(m.views, i, i+1)
	m.lc.drop(name)
	return true, nil
}

// Insert appends rows to a base table and maintains every registered view
// (see write).
func (m *Maintainer) Insert(table string, rows []storage.Row) error {
	_, err := m.write("insert", table, +1, func(t *storage.Table) (*storage.ColumnStore, error) {
		if err := t.InsertRows(rows); err != nil {
			return nil, err
		}
		return t.Tail(len(rows)), nil
	})
	return err
}

// Delete removes the base-table rows satisfying pred, maintains every
// registered view (see write), and returns the number of deleted rows.
//
// pred sees every live row boxed, so the statement costs a full pass over
// the table; DeleteWhere takes the predicate as an expression and does not.
func (m *Maintainer) Delete(table string, pred func(storage.Row) bool) (int, error) {
	return m.write("delete", table, -1, func(t *storage.Table) (*storage.ColumnStore, error) { return t.DeleteWhere(pred) })
}

// DeleteWhere is Delete for a WHERE clause over the table's columns (nil
// deletes every row). The victims are found the way a scan finds them —
// compiled column predicate, zone maps — and none is boxed. A clause whose
// evaluation could fail on some row goes row by row instead, counting a
// failing row as not matching.
func (m *Maintainer) DeleteWhere(table string, where expr.Expr) (int, error) {
	return m.write("delete", table, -1, func(t *storage.Table) (*storage.ColumnStore, error) {
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

// write runs one INSERT or DELETE as a snapshot-to-snapshot commit: base
// changes the table and returns the changed rows Δ as a batch of the
// table's column types (sign +1 for inserted rows, -1 for deleted ones), the
// table's maintenance program brings every view over the table up to date,
// and the base write and every view update that succeeded publish together
// as the next epoch. Snapshots pinned before keep reading the previous epoch
// in full. Concretely:
//
//   - A base-write failure aborts the statement: the table rolls back to the
//     committed epoch, no view is touched, the epoch does not advance, and the
//     returned *MaintenanceError has Base set.
//   - One rule per view: a view that is not Fresh is skipped (Repair owns
//     it); every other view folds in its delta terms (program), which read
//     Δ and the table as written, each applied with its sign (see terms). A
//     view whose conjuncts on the table alone no Δ row passes is left as it
//     is.
//   - A failing view rolls back to its committed contents — consistent but
//     stale, never torn — and is marked Stale before the statement returns;
//     the rest of the statement still commits.
//   - A commit failure (the WAL refused the record) aborts the statement: the
//     table and every updated view roll back to their committed contents,
//     which still agree, so no view changes state.
//
// The returned error names exactly which views were updated, failed, or
// skipped; the count is len(Δ).
func (m *Maintainer) write(op, table string, sign int64, base func(*storage.Table) (*storage.ColumnStore, error)) (int, error) {
	t := m.db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("maintain: unknown table %q", table)
	}
	rep := &MaintenanceError{Op: op, Table: table}
	var delta *storage.ColumnStore
	if err := guard(func() (err error) {
		delta, err = base(t)
		return err
	}); err != nil {
		m.db.RollbackTable(table)
		rep.Base = fmt.Errorf("maintain: base %s on %s failed: %w", op, table, err)
		return 0, rep
	}
	if delta == nil || delta.Len() == 0 {
		return 0, nil
	}
	p := m.program(table)
	rep.Skipped = append(rep.Skipped, p.skipped...)
	p.in.Bind(delta, m.db)
	for i := range p.views {
		pv := &p.views[i]
		if err := guard(func() error { return m.maintainView(pv, p.in, sign) }); err != nil {
			m.db.RollbackView(pv.v.Name)
			m.failView(pv.v.Name, err)
			rep.Failed = append(rep.Failed, ViewError{pv.v.Name, err})
			continue
		}
		rep.Updated = append(rep.Updated, pv.v.Name)
	}
	if _, err := m.db.CommitDurable(); err != nil {
		m.db.RollbackTable(table)
		for _, name := range rep.Updated {
			m.db.RollbackView(name)
		}
		rep.Updated = nil
		rep.Base = fmt.Errorf("maintain: commit of %s on %s failed: %w", op, table, err)
		return 0, rep
	}
	return delta.Len(), rep.orNil()
}

// maintainView folds the statement's Δ into one view: first every term's
// conjuncts on Δ alone (the irrelevant-update test of Blakeley, Coburn and
// Larson — a view no Δ row can reach is left as it is), then each term's
// rows, in program order, applied with the term's sign (see terms).
func (m *Maintainer) maintainView(pv *programView, in *exec.DeltaInput, sign int64) error {
	if pv.err != nil {
		return pv.err
	}
	relevant := false
	for _, term := range pv.terms {
		n, err := term.Select(in)
		if err != nil {
			return fmt.Errorf("maintain: delta for %s: %w", pv.v.Name, err)
		}
		relevant = relevant || n > 0
	}
	if !relevant {
		return nil
	}
	for k, term := range pv.terms {
		if err := m.faults.Maybe(faults.SiteMaintainDelta); err != nil {
			return fmt.Errorf("maintain: delta for %s: %w", pv.v.Name, err)
		}
		rows, err := term.Run(in)
		if err != nil {
			return fmt.Errorf("maintain: delta for %s: %w", pv.v.Name, err)
		}
		s := sign
		if sign > 0 && k >= (len(pv.terms)+1)/2 { // an even |S| under an INSERT
			s = -sign
		}
		if err := m.apply(pv.v, rows, s); err != nil {
			return err
		}
	}
	return nil
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

// bagSubtract removes one stored occurrence per delta row (bag semantics),
// finding them through the view's index over all of its columns (Locator):
// the cost follows the delta, not the view.
func bagSubtract(mv *storage.MaterializedView, delta []storage.Row, name string) error {
	cols := make([]int, mv.NumCols)
	for i := range cols {
		cols[i] = i
	}
	loc, _ := mv.Locator(cols)
	// The index does not see this statement's deletes until PatchIndexes,
	// so the k-th delta row with one key takes the bucket's k-th ordinal.
	taken := map[string]int{}
	ords := make([]int, 0, len(delta))
	var buf []byte
	for _, d := range delta {
		buf = d.AppendKey(buf[:0], cols)
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
// incremental-deletion rule that COUNT_BIG exists for. Define admits only
// sums that cannot be NULL, so a sum merges by plain arithmetic, with
// sqlvalue.Add's and Sub's semantics on the stored payloads: an INTEGER wraps,
// a DOUBLE is a plain float sum. A stored group is found through the index
// Locator picks over the group-by columns (the unique clustered key §2
// requires) — the view's declared one when it has one, else its locator, so
// the key is not kept twice — and is updated where it lies (SetInt,
// SetFloat): it keeps its ordinal and its place in that index. Only a new
// group (appended) or a vanished one (tombstoned) changes the key index. A
// delta holds each group once, so the cost follows the delta's groups, not
// the view's.
func (m *Maintainer) mergeAgg(v *View, mv *storage.MaterializedView, delta []storage.Row, sign int64) error {
	if err := m.faults.Maybe(faults.SiteMaintainMergeAgg); err != nil {
		return fmt.Errorf("maintain: merge into %s: %w", v.Name, err)
	}
	loc, _ := mv.Locator(v.keyPos)
	st := mv.Store()
	var buf []byte
	for _, d := range delta {
		buf = d.AppendKey(buf[:0], v.keyPos)
		stored := loc.ProbeKey(buf)
		if len(stored) == 0 {
			if sign < 0 {
				return fmt.Errorf("maintain: view %s: delete delta for unknown group", v.Name)
			}
			mv.Append([]storage.Row{d})
			continue
		}
		i := stored[0]
		newCnt := st.Int(i, v.cntPos) + sign*d[v.cntPos].Int()
		if newCnt < 0 {
			return fmt.Errorf("maintain: view %s: group count went negative", v.Name)
		}
		if newCnt == 0 {
			mv.Delete([]int{i})
			continue
		}
		mv.SetInt(i, v.cntPos, newCnt)
		for _, sp := range v.sumPos {
			switch stored, add := st.Col(sp).Kind, d[sp]; {
			case stored == sqlvalue.KindInt && add.Kind() == sqlvalue.KindInt:
				mv.SetInt(i, sp, st.Int(i, sp)+sign*add.Int())
			case stored == sqlvalue.KindFloat && add.IsNumeric():
				x, _ := add.AsFloat()
				if sign < 0 {
					x = -x
				}
				mv.SetFloat(i, sp, st.Float(i, sp)+x)
			default:
				return fmt.Errorf("maintain: view %s: a %s delta cannot merge into a %s sum", v.Name, add.Kind(), stored)
			}
		}
	}
	return nil
}
