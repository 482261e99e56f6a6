package maintain

import (
	"fmt"
	"strings"

	"matview/internal/exec"
	"matview/internal/storage"
)

// program is the maintenance program of one changed table: the compiled
// delta terms of every Fresh view that reads the table (one term per
// instance it reads), and the names of the views over the table a statement
// skips. It is compiled for one version of the view set — the lifecycle
// counts every view defined, dropped or moved between states — and reused,
// rebound to each statement's Δ, until the version moves on. Terms that
// join Δ to the same relation on the same columns share that join within a
// statement (exec.DeltaInput).
type program struct {
	version  uint64
	views    []programView
	skipped  []string
	selfJoin bool // some term reads the table under asWritten or asCommitted
	in       *exec.DeltaInput
	index    func(name string, cols []int) *storage.Index
}

// programView is one view's delta terms, in instance order; err, when set,
// is why they do not compile, and fails the view on every statement.
type programView struct {
	v     *View
	terms []*exec.DeltaTerm
	err   error
}

// program returns table's maintenance program for the current view set,
// compiling it when the view set has changed since it was last compiled.
func (m *Maintainer) program(table string) *program {
	version := m.lc.version.Load()
	if p := m.programs[table]; p != nil && p.version == version {
		return p
	}
	p := &program{version: version, in: exec.NewDeltaInput(), index: m.index}
	for _, v := range m.views {
		n := instancesOf(v.Def, table)
		if n == 0 {
			continue
		}
		if st, _ := m.ViewState(v.Name); st != Fresh {
			p.skipped = append(p.skipped, v.Name)
			continue
		}
		pv := programView{v: v}
		for i := range n {
			q, lead := deltaTerm(v.Def, table, i)
			if n > 1 {
				p.selfJoin = true
			} else {
				q = v.Def
			}
			term, err := exec.CompileDeltaTerm(q, lead)
			if err != nil {
				pv.err = fmt.Errorf("maintain: delta for %s: %w", v.Name, err)
				break
			}
			pv.terms = append(pv.terms, term)
		}
		p.views = append(p.views, pv)
	}
	m.programs[table] = p
	return p
}

// index serves a delta term's join probes on the live head: a table's
// declared index on exactly cols, else the writer's own locator over them.
// The changed table as written is its head; as committed it has none, and
// the term builds one for the statement.
func (m *Maintainer) index(name string, cols []int) *storage.Index {
	if strings.HasSuffix(name, asCommitted) {
		return nil
	}
	t := m.db.Table(strings.TrimSuffix(name, asWritten))
	if t == nil {
		return nil
	}
	if idx := t.LookupIndex(cols); idx != nil {
		return idx
	}
	return t.Locator(cols)
}
