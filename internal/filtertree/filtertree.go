// Package filtertree implements the filter tree of §4: an in-memory index
// over view *descriptions* that quickly discards views that cannot possibly
// answer a query, so the full view-matching tests run on a small candidate
// set. The tree subdivides the views into non-overlapping partitions at each
// level, one partitioning condition per level, with a lattice index inside
// each node for subset/superset searching.
//
// The level order follows §4.3: hubs, source tables, output expressions,
// output columns, residual predicates, range-constrained columns, and — for
// aggregation views, which live in their own subtree — grouping expressions
// and grouping columns.
//
// # Concurrency
//
// A Tree is safe for concurrent use. Insert and Delete take an exclusive
// lock; Candidates takes a shared (read) lock, performs no writes to the
// tree or the lattice indexes — per-search state lives in pooled scratch
// buffers — and returns a freshly allocated slice that never aliases
// internal storage. Once a view is published by Insert, any number of
// goroutines may run Candidates concurrently; on a quiescent tree (no
// concurrent registrations) searches never block one another.
package filtertree

import (
	"cmp"
	"slices"
	"sync"

	"matview/internal/core"
	"matview/internal/lattice"
)

// level is one partitioning condition.
type level struct {
	name string
	// key extracts the view-side key for this level.
	key func(v *core.View) lattice.Set
	// search runs the level's condition against an index of child nodes.
	search func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node
}

// node is one partition at some level: an internal node carries a lattice
// index of children keyed by the next level's condition; a leaf carries the
// views of the partition.
type node struct {
	idx   *lattice.Index[*node]
	views []*core.View
}

// Tree is the filter tree over a set of registered views. Its views must all
// come from one core.Matcher, and it must be searched with that matcher's
// query keys: the keys are sets of ids from the matcher's dictionary.
type Tree struct {
	mu   sync.RWMutex
	spj  *subtree
	agg  *subtree
	size int
	// scratch pools per-search frontier buffers, the candidate accumulator
	// and the lattice visit marks, so a steady-state Candidates call
	// allocates only its result slice.
	scratch sync.Pool // *candScratch
}

// candScratch is the per-search working state handed out by Tree.scratch.
type candScratch struct {
	frontier []*node
	next     []*node
	views    []*core.View
	marks    lattice.Scratch
}

type subtree struct {
	levels []level
	root   *node
}

func commonLevels(aggTree bool) []level {
	return []level{
		{
			// Hub condition (§4.2.2): hub ⊆ query's source tables.
			name: "hub",
			key:  func(v *core.View) lattice.Set { return v.Keys.Hub },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Subsets(qk.SourceTables, sc, out)
			},
		},
		{
			// Source table condition (§4.2.1): view sources ⊇ query sources.
			name: "sources",
			key:  func(v *core.View) lattice.Set { return v.Keys.SourceTables },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Supersets(qk.SourceTables, sc, out)
			},
		},
		{
			// Output expression condition (§4.2.7): query's textual output
			// expression list ⊆ view's. Aggregation views additionally carry
			// the sum arguments, matched by the query's aggregate arguments.
			name: "outexprs",
			key:  func(v *core.View) lattice.Set { return v.Keys.OutputExprs },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				q := qk.OutputExprsSPJ
				if aggTree {
					q = qk.OutputExprsAgg
				}
				return idx.Supersets(q, sc, out)
			},
		},
		{
			// Output column condition (§4.2.3): each query output class must
			// intersect the view's extended output list.
			name: "outcols",
			key:  func(v *core.View) lattice.Set { return v.Keys.OutputCols },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Covering(qk.OutputClasses, sc, out)
			},
		},
		{
			// Residual predicate condition (§4.2.6): view residual list ⊆
			// query residual list.
			name: "residuals",
			key:  func(v *core.View) lattice.Set { return v.Keys.Residuals },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Subsets(qk.Residuals, sc, out)
			},
		},
		{
			// Weak range constraint condition (§4.2.5): the view's reduced
			// range constraint list ⊆ the query's extended range constraint
			// list. The strong check runs per view at collection time.
			name: "ranges",
			key:  func(v *core.View) lattice.Set { return v.Keys.RangeColsReduced },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Subsets(qk.ExtRangeCols, sc, out)
			},
		},
	}
}

func aggLevels() []level {
	return append(commonLevels(true),
		level{
			// Grouping expression condition (§4.2.8).
			name: "groupexprs",
			key:  func(v *core.View) lattice.Set { return v.Keys.GroupingExprs },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Supersets(qk.GroupingExprs, sc, out)
			},
		},
		level{
			// Grouping column condition (§4.2.4).
			name: "groupcols",
			key:  func(v *core.View) lattice.Set { return v.Keys.GroupingCols },
			search: func(idx *lattice.Index[*node], qk *core.QueryKeys, sc *lattice.Scratch, out []*node) []*node {
				return idx.Covering(qk.GroupingClasses, sc, out)
			},
		},
	)
}

// New returns an empty filter tree.
func New() *Tree {
	return &Tree{
		spj:     &subtree{levels: commonLevels(false), root: &node{}},
		agg:     &subtree{levels: aggLevels(), root: &node{}},
		scratch: sync.Pool{New: func() any { return new(candScratch) }},
	}
}

// Len returns the number of views in the tree.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Insert registers a view's description in the tree. The view's Keys must
// not be mutated after insertion.
func (t *Tree) Insert(v *core.View) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.spj
	if v.Keys.IsAggregate {
		st = t.agg
	}
	st.insert(v)
	t.size++
}

// Delete removes a view (matched by ID); it reports whether the view was
// found. Empty partitions are pruned so later searches do not visit them.
func (t *Tree) Delete(v *core.View) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.spj
	if v.Keys.IsAggregate {
		st = t.agg
	}
	if !st.delete(v) {
		return false
	}
	t.size--
	return true
}

func (st *subtree) insert(v *core.View) {
	cur := st.root
	for _, lv := range st.levels {
		key := lv.key(v)
		if cur.idx == nil {
			cur.idx = lattice.New[*node]()
		}
		child, ok := cur.idx.Get(key)
		if !ok {
			child = &node{}
			cur.idx.Insert(key, child)
		}
		cur = child
	}
	cur.views = append(cur.views, v)
}

func (st *subtree) delete(v *core.View) bool {
	type step struct {
		parent, child *node
		key           lattice.Set
	}
	cur := st.root
	var path []step
	for _, lv := range st.levels {
		if cur.idx == nil {
			return false
		}
		key := lv.key(v)
		child, ok := cur.idx.Get(key)
		if !ok {
			return false
		}
		path = append(path, step{cur, child, key})
		cur = child
	}
	idx := slices.IndexFunc(cur.views, func(w *core.View) bool { return w.ID == v.ID })
	if idx < 0 {
		return false
	}
	cur.views = slices.Delete(cur.views, idx, idx+1)
	// Prune empty partitions bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		if len(p.child.views) > 0 || (p.child.idx != nil && p.child.idx.Len() > 0) {
			break
		}
		p.parent.idx.Delete(p.key, func(n *node) bool { return n == p.child })
	}
	return true
}

// Candidates returns the views that survive every partitioning condition for
// the given query keys, sorted by view ID. SPJ queries search only the SPJ
// subtree (an aggregation view can never answer them); aggregation queries
// search both subtrees, except scalar aggregates which skip the aggregation
// subtree (see core.QueryContext.Match).
//
// The returned slice is freshly allocated — it never aliases the tree's
// pooled scratch buffers, so callers may retain or mutate it freely.
func (t *Tree) Candidates(qk *core.QueryKeys) []*core.View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sc := t.scratch.Get().(*candScratch)
	buf := sc.views[:0]
	if !qk.SkipSPJ {
		buf = t.spj.candidates(qk, sc, buf)
	}
	if qk.IsAggregate && !qk.ScalarAggregate && !qk.SkipAgg {
		buf = t.agg.candidates(qk, sc, buf)
	}
	slices.SortFunc(buf, func(a, b *core.View) int { return cmp.Compare(a.ID, b.ID) })
	out := slices.Clone(buf)
	sc.views = buf[:0]
	t.scratch.Put(sc)
	return out
}

func (st *subtree) candidates(qk *core.QueryKeys, sc *candScratch, out []*core.View) []*core.View {
	frontier := append(sc.frontier[:0], st.root)
	next := sc.next[:0]
	defer func() { sc.frontier, sc.next = frontier[:0], next[:0] }()
	for _, lv := range st.levels {
		next = next[:0]
		for _, n := range frontier {
			if n.idx == nil {
				continue
			}
			next = lv.search(n.idx, qk, &sc.marks, next)
		}
		if len(next) == 0 {
			return out
		}
		frontier, next = next, frontier
	}
	for _, n := range frontier {
	views:
		for _, v := range n.views {
			// Strong range constraint condition (§4.2.5): every constrained
			// view class must have at least one column in the query's
			// extended range constraint list.
			for _, cls := range v.Keys.RangeClasses {
				if !cls.Intersects(qk.ExtRangeCols) {
					continue views
				}
			}
			out = append(out, v)
		}
	}
	return out
}
