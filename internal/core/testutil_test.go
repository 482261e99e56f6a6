package core

import (
	"strings"
	"testing"

	"matview/internal/lattice"
	"matview/internal/spjg"
	"matview/internal/tpch"
)

// hasKey reports whether a filter-tree key holds the named element under the
// matcher's dictionary: a column "orders.o_totalprice", a table occurrence
// "nation#1", a SUM argument text "SUM:?", or any other expression text.
func hasKey(m *Matcher, key lattice.Set, name string) bool {
	id, ok := -1, false
	if table, col, isCol := strings.Cut(name, "."); isCol && tcat.Table(table) != nil {
		if ids := m.dict.tables[table]; ids != nil {
			id, ok = ids.colBase+tcat.Table(table).ColumnIndex(col), true
		}
	} else if table, occ, isOcc := strings.Cut(name, "#"); isOcc && tcat.Table(table) != nil {
		if ids := m.dict.tables[table]; ids != nil && int(occ[0]-'0') < len(ids.occ) {
			id, ok = ids.occ[occ[0]-'0'], true
		}
	} else if arg, isSum := strings.CutPrefix(name, "SUM:"); isSum {
		id, ok = m.dict.sums[arg]
	} else {
		id, ok = m.dict.texts[name]
	}
	return ok && key.Has(id)
}

var tcat = tpch.NewCatalog(0.1)

func tref(name string) spjg.TableRef {
	t := tcat.Table(name)
	if t == nil {
		panic("unknown table " + name)
	}
	return spjg.TableRef{Table: t}
}

func trefAs(name, alias string) spjg.TableRef {
	r := tref(name)
	r.Alias = alias
	return r
}

func defaultMatcher() *Matcher {
	return NewMatcher(tcat, DefaultOptions())
}

func paperMatcher() *Matcher {
	// The paper prototype's behaviour: no extensions.
	return NewMatcher(tcat, MatchOptions{})
}

func mustView(t *testing.T, m *Matcher, id int, name string, def *spjg.Query) *View {
	t.Helper()
	v, err := m.NewView(id, name, def)
	if err != nil {
		t.Fatalf("NewView(%s): %v", name, err)
	}
	return v
}

func mustValidate(t *testing.T, q *spjg.Query) *spjg.Query {
	t.Helper()
	if err := q.Validate(); err != nil {
		t.Fatalf("invalid query: %v\n%s", err, q.String())
	}
	return q
}
