// Package shell implements the interactive session behind cmd/vmshell, and
// the one implementation of every view operation: a view lives in the
// maintainer (the registry of record), the optimizer and storage, and only
// the Session functions below — define, install, drop, index, restore — keep
// the three in step. SQL statements are parsed and executed, and DML flows
// through the maintainer so every materialized view stays consistent while
// queries keep being answered from views.
package shell

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"matview/internal/advisor"
	"matview/internal/exec"
	"matview/internal/maintain"
	"matview/internal/opt"
	"matview/internal/spjg"
	"matview/internal/sqlparser"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// Stager is the durability hook a WAL layer installs on the session: every
// mutation statement is staged before it runs, so the storage commit hook
// can append exactly the statements that reach Commit — an aborted statement
// is unstaged without ever touching the log.
type Stager interface {
	// Stage records the statement text about to execute.
	Stage(sql string)
	// Unstage clears the staged statement (deferred; runs whether the
	// statement committed, aborted, or never reached Commit).
	Unstage()
}

// Session is one interactive session over a database.
type Session struct {
	DB    *storage.Database
	Opt   *opt.Optimizer
	Maint *maintain.Maintainer

	// Dur, when non-nil, receives every mutation statement before execution
	// (see Stager). The WAL manager implements it.
	Dur Stager

	// Stats accumulates view-matching statistics across queries.
	Stats opt.QueryStats

	// MaxRows caps printed result rows.
	MaxRows int

	// history records executed SELECT statements for \advise.
	history []*spjg.Query
}

// ErrStaleBuild is InstallView's answer to rows built against an epoch the
// database has since left: build them again.
var ErrStaleBuild = errors.New("shell: view rows were built against a superseded epoch")

// NewSession builds a session with default options. The maintainer's view
// lifecycle is wired to the optimizer: any view leaving (or re-entering)
// Fresh flips its matching eligibility and bumps the catalog epoch, so plans
// cached against the old health are never served.
func NewSession(db *storage.Database) *Session {
	s := &Session{
		DB:      db,
		Opt:     opt.NewOptimizer(db.Catalog, opt.DefaultOptions()),
		Maint:   maintain.New(db),
		MaxRows: 25,
	}
	s.Maint.SetStateListener(func(view string, from, to maintain.State) {
		s.Opt.SetViewHealth(view, to == maintain.Fresh)
	})
	return s
}

// Execute runs one statement (without trailing semicolon) and writes its
// output to w. EXPLAIN <select> prints the plan instead of executing.
func (s *Session) Execute(stmt string, w io.Writer) error {
	explain := false
	if lower := strings.ToLower(strings.TrimSpace(stmt)); strings.HasPrefix(lower, "explain") {
		explain = true
		stmt = strings.TrimSpace(stmt)[len("explain"):]
	}
	st, err := sqlparser.Parse(s.DB.Catalog, stmt)
	if err != nil {
		return err
	}
	return s.run(st, stmt, explain, w)
}

// ExecuteParsed runs a statement the caller has already parsed against this
// session's catalog; stmt is its text, which a durable session logs.
func (s *Session) ExecuteParsed(st *sqlparser.Statement, stmt string, w io.Writer) error {
	return s.run(st, stmt, false, w)
}

func (s *Session) run(st *sqlparser.Statement, stmt string, explain bool, w io.Writer) error {
	if st.Insert != nil || st.Delete != nil || st.CreateIndex != nil {
		// Logged as written. CREATE and DROP VIEW, which the autopilot issues
		// without a statement, stage the statement that reproduces them.
		defer s.stage(stmt)()
	}
	switch {
	case st.Insert != nil:
		return s.execInsert(st.Insert, w)
	case st.Delete != nil:
		return s.execDelete(st.Delete, w)
	case st.CreateIndex != nil:
		return s.createIndex(st.CreateIndex, w)
	case st.ViewName != "":
		return s.createView(st.ViewName, st.Query, w)
	case st.DropViewName != "":
		if err := s.DropView(st.DropViewName); err != nil {
			return err
		}
		fmt.Fprintf(w, "dropped view %s\n", st.DropViewName)
		return nil
	default:
		return s.execSelect(st, explain, w)
	}
}

// stage hands sql to the WAL, when the session is durable, as the statement
// the next commit logs — a commit publishes its epoch only once the record is
// on disk — and returns the unstage to defer, which runs whether the
// statement committed or aborted, so an aborted statement is never logged.
func (s *Session) stage(sql string) func() {
	if s.Dur == nil {
		return func() {}
	}
	s.Dur.Stage(sql)
	return s.Dur.Unstage
}

// createView is CREATE VIEW in one go under the caller's lock: define, build,
// install — and drop the definition again if the view never installs.
func (s *Session) createView(name string, def *spjg.Query, w io.Writer) error {
	v, err := s.DefineView(name, def)
	if err != nil {
		return err
	}
	cs, epoch, err := s.Maint.Build(v)
	if err == nil {
		err = s.InstallView(v, cs, epoch)
	}
	if err != nil {
		// The view never installed, so it has no rows whose drop could fail.
		_ = s.DropView(name)
		return err
	}
	fmt.Fprintf(w, "materialized view %s: %d rows\n", name, cs.Live())
	return nil
}

// DefineView registers def under name with the maintainer as Rebuilding,
// refusing a name it already holds; Maintainer.Build then computes the rows
// InstallView stores. Until then no statement maintains the view and no plan
// matches it. The caller holds its exclusive lock.
func (s *Session) DefineView(name string, def *spjg.Query) (*maintain.View, error) {
	return s.Maint.Define(name, def)
}

// InstallView makes v a live view from the rows cs Maintainer.Build computed
// at epoch. The caller holds its exclusive lock. Rows from an epoch the database
// has since left are refused with ErrStaleBuild. Otherwise the statement that
// recreates the view is staged for the WAL, the maintainer stores and
// commits the rows and brings v Fresh — rolling the rows back if the commit
// fails, the one compensating step — and the optimizer learns of the view
// last, with its row count.
func (s *Session) InstallView(v *maintain.View, cs *storage.ColumnStore, epoch uint64) error {
	if s.DB.Epoch() != epoch {
		return ErrStaleBuild
	}
	defer s.stage("create view " + v.Name + " with schemabinding as " + v.Def.String())()
	if err := s.Maint.Install(v, cs); err != nil {
		return err
	}
	// Cannot fail: the maintainer holds the name once and the optimizer
	// holds only maintainer views, and Define validated the definition.
	if _, err := s.Opt.RegisterView(v.Name, v.Def); err != nil {
		return err
	}
	s.Opt.SetViewRowCount(v.Name, int64(cs.Live()))
	return nil
}

// DropView removes a view from every registry: the maintainer drops it and
// its rows in one commit (restoring them if the WAL refuses the drop), then
// the optimizer forgets it. A view whose build failed before install — no
// rows, unknown to the optimizer — drops all the same. The caller holds its
// exclusive lock.
func (s *Session) DropView(name string) error {
	defer s.stage("drop view " + name)()
	ok, err := s.Maint.Drop(name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("shell: unknown view %q", name)
	}
	s.Opt.DropView(name)
	return nil
}

// createIndex is CREATE [UNIQUE] INDEX over a view's outputs or a table's
// columns, named as the view definition or the catalog names them.
func (s *Session) createIndex(ci *sqlparser.CreateIndexStatement, w io.Writer) error {
	kind := "view"
	var names []string
	if i := slices.IndexFunc(s.Maint.Views(), func(v *maintain.View) bool { return v.Name == ci.Target }); i >= 0 {
		for _, o := range s.Maint.Views()[i].Def.Outputs {
			names = append(names, o.Name)
		}
	} else if t := s.DB.Table(ci.Target); t != nil {
		kind = "table"
		for _, c := range t.Meta.Columns {
			names = append(names, c.Name)
		}
	} else {
		return fmt.Errorf("shell: unknown table or view %q", ci.Target)
	}
	ords := make([]int, len(ci.Columns))
	for i, name := range ci.Columns {
		if ords[i] = slices.Index(names, name); ords[i] < 0 {
			return fmt.Errorf("shell: %s %s has no column %q", kind, ci.Target, name)
		}
	}
	if err := s.buildIndex(ci.Target, ords, ci.Unique); err != nil {
		return err
	}
	fmt.Fprintf(w, "created index %s on %s %s%v\n", ci.Name, kind, ci.Target, ci.Columns)
	return nil
}

// buildIndex builds an index over ords of the stored view or table target and
// commits it, rolling target back if the commit fails. A view's index is then
// declared to the optimizer — last, so an index that fails to build or commit
// (a unique index over duplicates) leaves the optimizer's index list and
// catalog epoch untouched and no plan seeks what storage lacks. Base-table
// indexes are not planned with, so the optimizer never hears of them.
func (s *Session) buildIndex(target string, ords []int, unique bool) error {
	var rel interface {
		BuildIndex([]int, bool) (*storage.Index, error)
	}
	mv := s.DB.View(target)
	if mv != nil {
		rel = mv
	} else if t := s.DB.Table(target); t != nil {
		rel = t
	} else {
		return fmt.Errorf("shell: %s has no stored rows to index", target)
	}
	if _, err := rel.BuildIndex(ords, unique); err != nil {
		return err
	}
	if _, err := s.DB.CommitDurable(); err != nil {
		// Only target changed since the last commit, so rolling back both
		// kinds under its name restores it and leaves the rest as it was.
		s.DB.RollbackTable(target)
		s.DB.RollbackView(target)
		return fmt.Errorf("shell: commit of index on %s failed: %w", target, err)
	}
	if mv == nil {
		return nil
	}
	return s.Opt.RegisterViewIndex(target, ords)
}

// RestoreView reinstalls a checkpointed view — definition, the store of its
// rows as the checkpoint holds them, indexes and health — through the same
// define, install and index steps CREATE VIEW and CREATE INDEX take.
// Recovery calls it before anything else runs.
func (s *Session) RestoreView(name string, def *spjg.Query, cs *storage.ColumnStore, indexes []storage.IndexDef, health maintain.State) error {
	v, err := s.DefineView(name, def)
	if err != nil {
		return err
	}
	if err := s.InstallView(v, cs, s.DB.Epoch()); err != nil {
		return err
	}
	for _, idx := range indexes {
		if err := s.buildIndex(name, idx.Cols, idx.Unique); err != nil {
			return err
		}
	}
	if health != maintain.Fresh {
		s.Maint.SetState(name, health, nil)
	}
	return nil
}

// CheckViews reports the first disagreement between the three places a view
// lives: a name the maintainer holds twice, an optimizer view that is not a
// maintainer view with committed rows, a committed view the maintainer does
// not hold, or a view index the optimizer plans with that storage lacks. A
// maintainer view with no rows (defined, not installed) is in order.
// Recovery runs it before serving; the DDL tests after every step.
func (s *Session) CheckViews() error {
	snap := s.DB.Snapshot()
	defer snap.Release()
	held := map[string]bool{}
	for _, v := range s.Maint.Views() {
		if held[v.Name] {
			return fmt.Errorf("shell: the maintainer holds view %q twice", v.Name)
		}
		held[v.Name] = true
	}
	for _, v := range s.Opt.Views() {
		vd := snap.ViewData(v.Name)
		if !held[v.Name] || vd == nil {
			return fmt.Errorf("shell: optimizer view %q is not a maintainer view with stored rows", v.Name)
		}
		for _, cols := range s.Opt.ViewIndexes(v.Name) {
			if vd.LookupIndex(cols) == nil {
				return fmt.Errorf("shell: the optimizer plans with index %v of view %q, which storage lacks", cols, v.Name)
			}
		}
	}
	for _, name := range snap.Views() {
		if !held[name] {
			return fmt.Errorf("shell: stored view %q is not a maintainer view", name)
		}
	}
	return nil
}

func (s *Session) execInsert(ins *sqlparser.InsertStatement, w io.Writer) error {
	rows := make([]storage.Row, len(ins.Rows))
	for i, r := range ins.Rows {
		rows[i] = storage.Row(r)
	}
	// A MaintenanceError means the statement partially applied (base rows
	// and/or some views); refresh stats before surfacing it.
	err := s.Maint.Insert(ins.Table, rows)
	s.DB.RefreshStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inserted %d row(s) into %s (views maintained)\n", len(rows), ins.Table)
	return nil
}

func (s *Session) execDelete(del *sqlparser.DeleteStatement, w io.Writer) error {
	n, err := s.Maint.DeleteWhere(del.Table, del.Where)
	s.DB.RefreshStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "deleted %d row(s) from %s (views maintained)\n", n, del.Table)
	return nil
}

func (s *Session) execSelect(st *sqlparser.Statement, explain bool, w io.Writer) error {
	res, err := s.Opt.Optimize(st.Query)
	if err != nil {
		return err
	}
	s.Stats.Add(res.Stats)
	s.history = append(s.history, st.Query)
	if explain {
		fmt.Fprintf(w, "estimated cost %.0f, rows %.0f, uses views: %v\n", res.Cost, res.Rows, res.UsesView)
		fmt.Fprint(w, exec.Explain(res.Plan))
		return nil
	}
	t0 := time.Now()
	// Execute against an epoch snapshot — the same read path the server
	// uses — so a SELECT never observes a half-applied statement even if a
	// concurrent writer shares the database.
	snap := s.DB.Snapshot()
	rows, err := res.Plan.Run(snap)
	snap.Release()
	if err != nil {
		return err
	}
	s.printRows(st, rows, w)
	note := ""
	if res.UsesView {
		note = " (used materialized views)"
	}
	fmt.Fprintf(w, "%d rows in %v%s\n", len(rows), time.Since(t0).Round(time.Microsecond), note)
	return nil
}

func (s *Session) printRows(st *sqlparser.Statement, rows []storage.Row, w io.Writer) {
	var headers []string
	for i, oc := range st.Query.Outputs {
		name := oc.Name
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		headers = append(headers, name)
	}
	fmt.Fprintln(w, strings.Join(headers, " | "))
	limit := len(rows)
	if s.MaxRows > 0 && limit > s.MaxRows {
		limit = s.MaxRows
	}
	for _, r := range rows[:limit] {
		parts := make([]string, len(r))
		for i, v := range r {
			if v.Kind() == sqlvalue.KindFloat {
				parts[i] = fmt.Sprintf("%.2f", v.Float())
			} else {
				parts[i] = strings.Trim(v.String(), "'")
			}
		}
		fmt.Fprintln(w, strings.Join(parts, " | "))
	}
	if limit < len(rows) {
		fmt.Fprintf(w, "... (%d more rows)\n", len(rows)-limit)
	}
}

// Meta executes a backslash command; it reports false when the session
// should end (\quit).
func (s *Session) Meta(cmd string, w io.Writer) bool {
	switch strings.Fields(cmd)[0] {
	case "\\quit", "\\q":
		return false
	case "\\views":
		for _, v := range s.Maint.Views() {
			rows := int64(-1)
			if mv := s.DB.View(v.Name); mv != nil {
				rows = mv.RowCount()
			}
			state, _ := s.Maint.ViewState(v.Name)
			fmt.Fprintf(w, "  %-20s %8d rows  %-11s %s\n", v.Name, rows, state, v.Def.String())
		}
		if len(s.Maint.Views()) == 0 {
			fmt.Fprintln(w, "  (no materialized views)")
		}
	case "\\advise":
		s.advise(w)
	case "\\stats":
		fmt.Fprintf(w, "  view-matching invocations: %d\n", s.Stats.Invocations)
		fmt.Fprintf(w, "  candidates checked:        %d\n", s.Stats.CandidatesChecked)
		fmt.Fprintf(w, "  substitutes produced:      %d\n", s.Stats.SubstitutesProduced)
		fmt.Fprintf(w, "  time in view matching:     %v\n", s.Stats.ViewMatchTime)
	default:
		fmt.Fprintln(w, "  commands: \\views \\stats \\advise \\quit")
	}
	return true
}

// advise recommends materialized views for the queries run so far.
func (s *Session) advise(w io.Writer) {
	if len(s.history) == 0 {
		fmt.Fprintln(w, "  no queries yet; run some SELECTs first")
		return
	}
	recs, err := advisor.Recommend(s.DB.Catalog, s.history, advisor.Config{MaxViews: 3})
	if err != nil {
		fmt.Fprintln(w, "  error:", err)
		return
	}
	if len(recs) == 0 {
		fmt.Fprintln(w, "  no beneficial views found for this session's queries")
		return
	}
	for _, r := range recs {
		fmt.Fprintf(w, "  -- est. %.0f rows, saves %.0f cost units over %d quer%s\n",
			r.Rows, r.Benefit, len(r.Queries), plural(len(r.Queries)))
		fmt.Fprintf(w, "  CREATE VIEW %s WITH SCHEMABINDING AS %s;\n", r.Name, r.Def.String())
	}
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
