// Package shell implements the interactive session behind cmd/vmshell: SQL
// statements are parsed, views are materialized and registered with the
// optimizer and the incremental maintainer, indexes are declared to both the
// optimizer and storage, and DML flows through the maintainer so every
// materialized view stays consistent while queries keep being answered from
// views.
package shell

import (
	"fmt"
	"io"
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
	if s.Dur != nil && (st.Insert != nil || st.Delete != nil || st.CreateIndex != nil ||
		st.ViewName != "" || st.DropViewName != "") {
		// Stage the statement text so the commit hook logs it durably before
		// the epoch publishes; Unstage clears it on every exit path, so an
		// aborted statement never reaches the WAL.
		s.Dur.Stage(stmt)
		defer s.Dur.Unstage()
	}
	switch {
	case st.Insert != nil:
		return s.execInsert(st.Insert, w)
	case st.Delete != nil:
		return s.execDelete(st.Delete, w)
	case st.CreateIndex != nil:
		return s.execCreateIndex(st.CreateIndex, w)
	case st.ViewName != "":
		return s.execCreateView(st, w)
	case st.DropViewName != "":
		return s.execDropView(st.DropViewName, w)
	default:
		return s.execSelect(st, explain, w)
	}
}

func (s *Session) execDropView(name string, w io.Writer) error {
	v := s.Opt.ViewByName(name)
	if v == nil || !s.Opt.DropView(name) {
		return fmt.Errorf("shell: unknown view %q", name)
	}
	if _, err := s.Maint.Drop(name); err != nil {
		// The drop did not commit (durable servers: the WAL refused the
		// record); the maintainer restored the stored rows, so restore the
		// optimizer registration too and surface the failure.
		_, _ = s.Opt.RegisterView(name, v.Def)
		return err
	}
	fmt.Fprintf(w, "dropped view %s\n", name)
	return nil
}

func (s *Session) execCreateView(st *sqlparser.Statement, w io.Writer) error {
	if _, err := s.Opt.RegisterView(st.ViewName, st.Query); err != nil {
		return err
	}
	if _, err := s.Maint.Register(st.ViewName, st.Query); err != nil {
		s.Opt.DropView(st.ViewName)
		return err
	}
	mv := s.DB.View(st.ViewName)
	s.Opt.SetViewRowCount(st.ViewName, mv.RowCount())
	fmt.Fprintf(w, "materialized view %s: %d rows\n", st.ViewName, mv.RowCount())
	return nil
}

func (s *Session) execCreateIndex(ci *sqlparser.CreateIndexStatement, w io.Writer) error {
	// Index on a materialized view: resolve output names against the view
	// definition, register with the optimizer, build on storage.
	if v := s.Opt.ViewByName(ci.Target); v != nil {
		var ords []int
		for _, name := range ci.Columns {
			ord := -1
			for i, o := range v.Def.Outputs {
				if o.Name == name {
					ord = i
					break
				}
			}
			if ord < 0 {
				return fmt.Errorf("shell: view %s has no output %q", ci.Target, name)
			}
			ords = append(ords, ord)
		}
		if err := s.Opt.RegisterViewIndex(ci.Target, ords); err != nil {
			return err
		}
		mv := s.DB.View(ci.Target)
		if mv == nil {
			return fmt.Errorf("shell: view %s not materialized", ci.Target)
		}
		if _, err := mv.BuildIndex(ords, ci.Unique); err != nil {
			return err
		}
		// Publish the new index as a committed epoch so snapshot readers can
		// probe it.
		if _, err := s.DB.CommitDurable(); err != nil {
			s.DB.RollbackView(ci.Target)
			return fmt.Errorf("shell: commit of index on view %s failed: %w", ci.Target, err)
		}
		fmt.Fprintf(w, "created index %s on view %s%v\n", ci.Name, ci.Target, ci.Columns)
		return nil
	}
	// Index on a base table.
	t := s.DB.Table(ci.Target)
	if t == nil {
		return fmt.Errorf("shell: unknown table or view %q", ci.Target)
	}
	var ords []int
	for _, name := range ci.Columns {
		ord := t.Meta.ColumnIndex(name)
		if ord < 0 {
			return fmt.Errorf("shell: table %s has no column %q", ci.Target, name)
		}
		ords = append(ords, ord)
	}
	if _, err := t.BuildIndex(ords, ci.Unique); err != nil {
		return err
	}
	if _, err := s.DB.CommitDurable(); err != nil {
		s.DB.RollbackTable(ci.Target)
		return fmt.Errorf("shell: commit of index on table %s failed: %w", ci.Target, err)
	}
	fmt.Fprintf(w, "created index %s on table %s%v\n", ci.Name, ci.Target, ci.Columns)
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
		for _, v := range s.Opt.Views() {
			rows := int64(-1)
			if mv := s.DB.View(v.Name); mv != nil {
				rows = mv.RowCount()
			}
			state := maintain.Fresh
			if st, ok := s.Maint.ViewState(v.Name); ok {
				state = st
			}
			fmt.Fprintf(w, "  %-20s %8d rows  %-11s %s\n", v.Name, rows, state, v.Def.String())
		}
		if s.Opt.NumViews() == 0 {
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
