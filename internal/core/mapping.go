package core

import "matview/internal/spjg"

// alignment enumerates the injective, table-name-preserving mappings from the
// query's table instances to the view's. Table alignment is trivial (a single
// mapping) unless the same base table appears more than once on either side —
// e.g. a nation dimension shared by customer and supplier — in which case
// each assignment of query instances to view instances must be tried.
type alignment struct {
	mapping []int  // query table instance → view table instance
	taken   []bool // per view table instance
	tried   int
}

// each calls try with al.mapping set to one mapping after another until try
// reports success or limit mappings have been tried, and reports whether try
// succeeded. The query instances listed in order are assigned in that order,
// each to the view's instances of the same table in FROM order; k is the
// number of instances already assigned.
func (al *alignment) each(q, v []spjg.TableRef, order []int, k, limit int, try func() bool) bool {
	if k == len(order) {
		al.tried++
		return try()
	}
	qt := order[k]
	for j := range v {
		if al.taken[j] || v[j].Table.Name != q[qt].Table.Name {
			continue
		}
		al.taken[j], al.mapping[qt] = true, j
		if al.each(q, v, order, k+1, limit, try) {
			return true
		}
		al.taken[j] = false
		if al.tried >= limit {
			break
		}
	}
	return false
}
