package opt

import (
	"fmt"
	"slices"

	"matview/internal/core"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/sqlvalue"
)

// RegisterViewIndex declares a secondary index over a view's output columns
// (by ordinal), the optimizer-side counterpart of "CREATE INDEX ... ON view"
// in Example 1. Substitutes whose compensating filter pins every index column
// to a constant are planned as index seeks and costed accordingly — this is
// how "any secondary indexes defined on a materialized view will be
// considered automatically in the same way as for base tables" (§2) plays
// out. The caller (shell.Session's CREATE INDEX) builds and commits the
// matching storage index first — BuildIndex of the view's stored relation,
// the same one a table's index is built by — so no plan seeks an index
// storage lacks.
func (o *Optimizer) RegisterViewIndex(name string, cols []int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.byName[name]
	if !ok {
		return fmt.Errorf("opt: unknown view %q", name)
	}
	for _, c := range cols {
		if c < 0 || c >= len(v.Def.Outputs) {
			return fmt.Errorf("opt: view %q has no output ordinal %d", name, c)
		}
	}
	if o.viewIndexes == nil {
		o.viewIndexes = map[int][][]int{}
	}
	o.viewIndexes[v.ID] = append(o.viewIndexes[v.ID], append([]int(nil), cols...))
	o.epoch.Add(1)
	return nil
}

// ViewIndexes returns the secondary indexes declared on a view, as output
// ordinals — the ones plans may seek.
func (o *Optimizer) ViewIndexes(name string) [][]int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if v, ok := o.byName[name]; ok {
		return o.viewIndexes[v.ID]
	}
	return nil
}

// seekAccess tries to convert a substitute's compensating filter into an
// index seek: if some registered index's columns are all pinned by equality
// conjuncts, those conjuncts move into the scan's EqCols/EqVals and the rest
// stays as the residual filter. Returns nil when no index applies.
func (o *Optimizer) seekAccess(sub *core.Substitute) *exec.ViewScan {
	idxs := o.viewIndexes[sub.View.ID]
	if len(idxs) == 0 || sub.Filter == nil {
		return nil
	}
	conjuncts := sub.Conjuncts()
	// Pick the longest fully-pinned index.
	var best []int
	for _, cols := range idxs {
		all := len(cols) > len(best)
		for _, c := range cols {
			ci, _ := pinnedBy(conjuncts, c)
			all = all && ci >= 0
		}
		if all {
			best = cols
		}
	}
	if best == nil {
		return nil
	}
	scan := &exec.ViewScan{
		View:   sub.View.Name,
		NCols:  len(sub.View.Def.Outputs),
		EqCols: best,
		EqVals: make([]sqlvalue.Value, len(best)),
	}
	used := make([]int, len(best))
	for i, c := range best {
		used[i], scan.EqVals[i] = pinnedBy(conjuncts, c)
	}
	var rest []expr.Expr
	for ci, c := range conjuncts {
		if !slices.Contains(used, ci) {
			rest = append(rest, c)
		}
	}
	if len(rest) > 0 {
		scan.Filter = expr.NewAnd(rest...)
	}
	return scan
}

// pinnedBy returns the index of the first conjunct that pins output ordinal
// col to a non-NULL constant (in either operand order), and the constant; -1
// when none does.
func pinnedBy(conjuncts []expr.Expr, col int) (int, sqlvalue.Value) {
	for ci, c := range conjuncts {
		if kind, _, rng := expr.Classify(c); kind == expr.KindRange && rng.Op == expr.EQ && rng.Col == (expr.ColRef{Col: col}) {
			return ci, rng.Val
		}
	}
	return -1, sqlvalue.Null
}

// seekCost is the access cost of an index probe producing outRows rows: the
// probe itself plus the matched rows, instead of scanning the whole view.
func seekCost(outRows float64) float64 { return 1 + outRows }
