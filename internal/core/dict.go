package core

import (
	"sync"

	"matview/internal/catalog"
)

// dict interns the elements of the filter-tree keys (§4.2) to small dense
// integers so the keys are bitsets. It belongs to a Matcher: the views of one
// matcher may sit in several filter trees, all searched with keys computed by
// that matcher. There is one id space per kind of element — columns, table
// occurrences, expression texts — because each lattice level compares
// elements of one kind only, and narrow id spaces keep the bitsets short.
//
// Ids are assigned when a view is registered and never reclaimed; looking up
// a query's elements never adds any. An element no view has gets no id: it
// cannot occur in a view key, so a subset search ignores it and a superset
// search has no answer.
type dict struct {
	mu     sync.RWMutex
	tables map[string]*tableIDs // by base-table name
	cols   int                  // column ids handed out
	occs   int                  // occurrence ids handed out
	texts  map[string]int       // scalar expression fingerprint text → id
	sums   map[string]int       // SUM argument fingerprint text → id, in the texts id space
}

// tableIDs are the ids of one base table's elements.
type tableIDs struct {
	colBase int   // column c has id colBase+c ("lineitem.l_partkey")
	occ     []int // occ[k] is the id of the k-th occurrence in a FROM list ("nation#1")
}

func newDict() *dict {
	return &dict{tables: map[string]*tableIDs{}, texts: map[string]int{}, sums: map[string]int{}}
}

// internTable returns the ids of t, extended to cover the given number of
// occurrences. The caller holds the write lock.
func (d *dict) internTable(t *catalog.Table, occurrences int) *tableIDs {
	ids := d.tables[t.Name]
	if ids == nil {
		ids = &tableIDs{colBase: d.cols}
		d.cols += len(t.Columns)
		d.tables[t.Name] = ids
	}
	for len(ids.occ) < occurrences {
		ids.occ = append(ids.occ, d.occs)
		d.occs++
	}
	return ids
}

// internText returns the id of s in space (texts or sums), assigning the next
// free one if s is new. The caller holds the write lock.
func (d *dict) internText(space map[string]int, s string) int {
	id, ok := space[s]
	if !ok {
		id = len(d.texts) + len(d.sums)
		space[s] = id
	}
	return id
}
