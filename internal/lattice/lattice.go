// Package lattice implements the lattice index of §4.1: a collection of set
// keys organized in the partial order induced by set inclusion, supporting
// the two searches the filter tree needs — all keys that are subsets of a
// search key and all keys that are supersets — without scanning every key.
//
// Keys are bitsets over small dense integers (the caller interns its
// elements), so every ⊆ / ⊇ / ∩ test is a few word operations.
//
// Each node carries superset pointers (to minimal supersets) and subset
// pointers (to maximal subsets); nodes without supersets are tops, nodes
// without subsets are roots. A superset search starts from the tops and
// follows subset pointers, pruning any node that is not itself a superset of
// the search key (no subset of it can be). A subset search is the mirror
// image, starting from the roots.
//
// Concurrency: the search methods (Supersets, Subsets, Covering, Get, Len,
// Size) never mutate the index — node visit tracking lives in the
// caller's Scratch, not on the nodes — so any number of goroutines may search
// concurrently, each with its own Scratch. Insert and Delete mutate the graph
// and require external synchronization against each other and against
// searches (the filter tree provides it with an RWMutex).
package lattice

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Set is a set of small non-negative integers as a bitset. A Set built with
// Add has no trailing zero words, which makes equal sets equal word for word
// and lets SubsetOf reject on length alone.
type Set []uint64

// Add returns s with id added, growing it as needed.
func (s Set) Add(id int) Set {
	w := id >> 6
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << (id & 63)
	return s
}

// Has reports whether id is in s.
func (s Set) Has(id int) bool {
	w := id >> 6
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports s ⊆ o.
func (s Set) SubsetOf(o Set) bool {
	if len(s) > len(o) {
		return false
	}
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports s ∩ o ≠ ∅.
func (s Set) Intersects(o Set) bool {
	if len(o) < len(s) {
		s = s[:len(o)]
	}
	for i, w := range s {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// handle returns the map key of s: its words as bytes.
func (s Set) handle() string {
	b := make([]byte, 0, 64)
	for _, w := range s {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// node is one key set in the lattice with its payloads.
type node[P any] struct {
	id       int // dense per-index ordinal, indexes Scratch.marks
	key      Set
	payloads []P
	supers   []*node[P] // minimal supersets
	subs     []*node[P] // maximal subsets
}

// Index is a lattice index over Set keys with payloads of type P. The zero
// value is not usable; call New.
type Index[P any] struct {
	nodes  map[string]*node[P]
	tops   []*node[P]
	roots  []*node[P]
	size   int // total payload count
	nextID int
}

// Scratch is the working state of a search: an epoch-stamped visited array
// indexed by node id (bumping the epoch invalidates all marks in O(1)). One
// Scratch serves any number of searches, over any indexes, one at a time; the
// zero value is ready to use. Reusing it keeps searches allocation-free.
type Scratch struct {
	marks []uint32
	epoch uint32
}

// begin readies the scratch for one search of an index with that many nodes.
func (sc *Scratch) begin(nodes int) {
	if len(sc.marks) < nodes {
		sc.marks = append(sc.marks, make([]uint32, nodes-len(sc.marks))...)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could collide, reset them
		clear(sc.marks)
		sc.epoch = 1
	}
}

// visit marks the node visited and reports whether it already was.
func (sc *Scratch) visit(id int) bool {
	if sc.marks[id] == sc.epoch {
		return true
	}
	sc.marks[id] = sc.epoch
	return false
}

// New returns an empty lattice index.
func New[P any]() *Index[P] {
	return &Index[P]{nodes: map[string]*node[P]{}}
}

// Len returns the number of distinct keys in the index.
func (x *Index[P]) Len() int { return len(x.nodes) }

// Size returns the total number of payloads stored.
func (x *Index[P]) Size() int { return x.size }

// Get returns the first payload stored under exactly key.
func (x *Index[P]) Get(key Set) (p P, ok bool) {
	n, ok := x.nodes[key.handle()]
	if !ok {
		return p, false
	}
	return n.payloads[0], true
}

// Insert adds a payload under the given key set, creating and wiring a new
// lattice node if the key is new. The key is retained and must not be
// modified afterwards.
func (x *Index[P]) Insert(key Set, payload P) {
	h := key.handle()
	if n, ok := x.nodes[h]; ok {
		n.payloads = append(n.payloads, payload)
		x.size++
		return
	}
	n := &node[P]{id: x.nextID, key: key, payloads: []P{payload}}
	x.nextID++

	// Find the minimal supersets and maximal subsets of the new key by a
	// pruned walk from the tops / roots.
	supers := x.minimalSupersets(n.key)
	subs := x.maximalSubsets(n.key)

	// Any existing super→sub edge that now passes through n is removed.
	for _, s := range supers {
		for _, b := range subs {
			removeEdge(s, b)
		}
	}
	for _, s := range supers {
		s.subs = append(s.subs, n)
		n.supers = append(n.supers, s)
	}
	for _, b := range subs {
		b.supers = append(b.supers, n)
		n.subs = append(n.subs, b)
	}

	// Maintain the top and root arrays.
	if len(supers) == 0 {
		x.tops = append(x.tops, n)
	}
	// Former tops that are now below n stop being tops.
	x.tops = slices.DeleteFunc(x.tops, func(t *node[P]) bool { return len(t.supers) > 0 })
	if len(subs) == 0 {
		x.roots = append(x.roots, n)
	}
	x.roots = slices.DeleteFunc(x.roots, func(r *node[P]) bool { return len(r.subs) > 0 })

	x.nodes[h] = n
	x.size++
}

// minimalSupersets returns the nodes with key ⊇ k that have no other superset
// node of k below them.
func (x *Index[P]) minimalSupersets(k Set) []*node[P] {
	return extremes(x.tops, func(n *node[P]) bool { return k.SubsetOf(n.key) }, func(n *node[P]) []*node[P] { return n.subs })
}

// maximalSubsets returns the nodes with key ⊆ k that have no other subset
// node of k above them.
func (x *Index[P]) maximalSubsets(k Set) []*node[P] {
	return extremes(x.roots, func(n *node[P]) bool { return n.key.SubsetOf(k) }, func(n *node[P]) []*node[P] { return n.supers })
}

// extremes walks from the start nodes along next while ok holds and returns
// the nodes where it holds for none of their successors. ok must fail on
// every successor of a node it fails on.
func extremes[P any](start []*node[P], ok func(*node[P]) bool, next func(*node[P]) []*node[P]) []*node[P] {
	var result []*node[P]
	visited := map[*node[P]]bool{}
	var walk func(n *node[P]) bool // reports whether ok holds at n
	walk = func(n *node[P]) bool {
		if visited[n] || !ok(n) {
			return ok(n)
		}
		visited[n] = true
		last := true
		for _, c := range next(n) {
			if walk(c) {
				last = false
			}
		}
		if last {
			result = append(result, n)
		}
		return true
	}
	for _, n := range start {
		walk(n)
	}
	return result
}

// Delete removes one payload (selected by match) under the given key; when
// the node's payload list empties, the node is unlinked and its neighbours
// are re-wired to preserve reachability. It returns whether a payload was
// removed.
func (x *Index[P]) Delete(key Set, match func(P) bool) bool {
	h := key.handle()
	n, ok := x.nodes[h]
	if !ok {
		return false
	}
	idx := -1
	for i, p := range n.payloads {
		if match(p) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	n.payloads = append(n.payloads[:idx], n.payloads[idx+1:]...)
	x.size--
	if len(n.payloads) > 0 {
		return true
	}

	// Unlink the empty node. Snapshot the neighbour lists first: removeEdge
	// mutates them.
	delete(x.nodes, h)
	supers := append([]*node[P](nil), n.supers...)
	subs := append([]*node[P](nil), n.subs...)
	for _, s := range supers {
		removeEdge(s, n)
	}
	for _, b := range subs {
		removeEdge(n, b)
	}
	// Restore reachability between n's former supers and subs.
	for _, s := range supers {
		for _, b := range subs {
			if !x.reachable(s, b) {
				s.subs = append(s.subs, b)
				b.supers = append(b.supers, s)
			}
		}
	}
	// Former subs with no supersets become tops; former supers with no
	// subsets become roots.
	x.tops = slices.DeleteFunc(x.tops, func(t *node[P]) bool { return t == n })
	x.roots = slices.DeleteFunc(x.roots, func(r *node[P]) bool { return r == n })
	for _, b := range subs {
		if len(b.supers) == 0 && !slices.Contains(x.tops, b) {
			x.tops = append(x.tops, b)
		}
	}
	for _, s := range supers {
		if len(s.subs) == 0 && !slices.Contains(x.roots, s) {
			x.roots = append(x.roots, s)
		}
	}
	return true
}

// reachable reports whether b is reachable from s along subset pointers.
func (x *Index[P]) reachable(s, b *node[P]) bool {
	if s == b {
		return true
	}
	visited := map[*node[P]]bool{}
	var walk func(n *node[P]) bool
	walk = func(n *node[P]) bool {
		if n == b {
			return true
		}
		if visited[n] {
			return false
		}
		visited[n] = true
		// Prune: b's key must be a subset of every node on the path.
		if !b.key.SubsetOf(n.key) {
			return false
		}
		for _, c := range n.subs {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(s)
}

// Supersets appends to out the payloads of every node whose key is a superset
// of (or equal to) the search key, and returns out. It walks down from the
// tops: no subset of a node that fails can be a superset of the key.
func (x *Index[P]) Supersets(search Set, sc *Scratch, out []P) []P {
	return x.search(x.tops, false, sc, out, func(key Set) bool { return search.SubsetOf(key) })
}

// Subsets appends to out the payloads of every node whose key is a subset of
// (or equal to) the search key, and returns out. It walks up from the roots:
// no superset of a node that fails can be a subset of the key.
func (x *Index[P]) Subsets(search Set, sc *Scratch, out []P) []P {
	return x.search(x.roots, true, sc, out, func(key Set) bool { return key.SubsetOf(search) })
}

// Covering appends the payloads of every node whose key intersects each of
// the classes — the output-column and grouping-column conditions of
// §4.2.3–4.2.4. Like a superset search it walks down from the tops: a key
// that misses a class has no subset that hits it.
func (x *Index[P]) Covering(classes []Set, sc *Scratch, out []P) []P {
	return x.search(x.tops, false, sc, out, func(key Set) bool {
		for _, cls := range classes {
			if !key.Intersects(cls) {
				return false
			}
		}
		return true
	})
}

// search collects the start nodes and everything reachable from them (along
// superset pointers when up is set, subset pointers otherwise) whose key
// satisfies keep, pruning below a node that fails.
func (x *Index[P]) search(start []*node[P], up bool, sc *Scratch, out []P, keep func(Set) bool) []P {
	sc.begin(x.nextID)
	for _, n := range start {
		out = walk(n, up, sc, out, keep)
	}
	return out
}

func walk[P any](n *node[P], up bool, sc *Scratch, out []P, keep func(Set) bool) []P {
	if sc.visit(n.id) || !keep(n.key) {
		return out
	}
	out = append(out, n.payloads...)
	next := n.subs
	if up {
		next = n.supers
	}
	for _, c := range next {
		out = walk(c, up, sc, out, keep)
	}
	return out
}

func removeEdge[P any](parent, child *node[P]) {
	parent.subs = slices.DeleteFunc(parent.subs, func(n *node[P]) bool { return n == child })
	child.supers = slices.DeleteFunc(child.supers, func(n *node[P]) bool { return n == parent })
}
