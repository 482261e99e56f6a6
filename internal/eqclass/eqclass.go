// Package eqclass implements column equivalence classes (§3.1.1): sets of
// columns known to be equal because of column-equality predicates.
//
// Classes is a dense union-find over the columns of one SPJG expression. A
// column's id is the offset of its table instance plus its ordinal, so the
// structure is three int32 slices and the §3.1.2 tests are integer
// comparisons. Every column of every table instance is present from the
// start, in a trivial class of its own. Find never writes (union by size
// bounds the depth, there is no path compression), and Freeze turns a
// finished collection into a read-only one that any number of goroutines may
// share.
package eqclass

import (
	"slices"

	"matview/internal/expr"
)

// Classes is a collection of column equivalence classes over a fixed column
// space. The zero value is an empty space; call New or ResetLike.
type Classes struct {
	off    []int32 // off[t] is the id of column 0 of table instance t; off[len(off)-1] is the id count
	parent []int32
	size   []int32 // members under a root; meaningful at roots only

	// joined lists every id that has been an argument of a merging union, so
	// the non-trivial classes can be enumerated without scanning the space.
	joined []int32
	// classes is the enumeration of the non-trivial classes: members
	// ascending, classes ordered by their smallest member. It is valid while
	// enumerated is set; members backs it.
	classes    [][]int32
	members    []int32
	enumerated bool
	frozen     bool
}

// New returns the all-trivial classes of an expression over the given number
// of table instances, where instance t has width(t) columns.
func New(tables int, width func(t int) int) *Classes {
	n := 0
	for t := 0; t < tables; t++ {
		n += width(t)
	}
	buf := make([]int32, tables+1+2*n) // off, parent, size
	c := &Classes{off: buf[: tables+1 : tables+1], parent: buf[tables+1 : tables+1+n : tables+1+n], size: buf[tables+1+n:]}
	for t := 0; t < tables; t++ {
		c.off[t+1] = c.off[t] + int32(width(t))
	}
	c.reset()
	return c
}

// ResetLike makes c the all-trivial classes over o's column space, reusing
// c's storage. A view-matching attempt extends the query's classes in the
// view's column space this way (§3.2) without copying either side. The
// offset table is shared with o, which must not change its space afterwards.
func (c *Classes) ResetLike(o *Classes) {
	c.off = o.off
	c.reset()
}

func (c *Classes) reset() {
	n := int(c.off[len(c.off)-1])
	if cap(c.parent) < n {
		c.parent = make([]int32, n)
		c.size = make([]int32, n)
	}
	c.parent, c.size = c.parent[:n], c.size[:n]
	for i := range c.parent {
		c.parent[i] = int32(i)
		c.size[i] = 1
	}
	c.joined = c.joined[:0]
	c.enumerated, c.frozen = false, false
}

// Len returns the number of columns in the space.
func (c *Classes) Len() int { return len(c.parent) }

// Offsets returns, per table instance, the id of its column 0. The slice is
// shared and must not be modified.
func (c *Classes) Offsets() []int32 { return c.off[:len(c.off)-1] }

// ID returns the id of column r, or -1 when r lies outside the space.
func (c *Classes) ID(r expr.ColRef) int32 {
	if r.Tab < 0 || r.Tab >= len(c.off)-1 || r.Col < 0 {
		return -1
	}
	id := c.off[r.Tab] + int32(r.Col)
	if id >= c.off[r.Tab+1] {
		return -1
	}
	return id
}

// Ref returns the column with the given id.
func (c *Classes) Ref(id int32) expr.ColRef {
	t := 0
	for c.off[t+1] <= id {
		t++
	}
	return expr.ColRef{Tab: t, Col: int(id - c.off[t])}
}

// FindID returns the id of the representative of x's class. It performs no
// writes.
func (c *Classes) FindID(x int32) int32 {
	for c.parent[x] != x {
		x = c.parent[x]
	}
	return x
}

// UnionID merges the classes of a and b. The larger class keeps its
// representative; on a tie a's does.
func (c *Classes) UnionID(a, b int32) {
	if c.frozen {
		panic("eqclass: union on frozen classes")
	}
	ra, rb := c.FindID(a), c.FindID(b)
	if ra == rb {
		return
	}
	if c.size[ra] < c.size[rb] {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	c.size[ra] += c.size[rb]
	c.joined = append(c.joined, a, b)
	c.enumerated = false
}

// Union merges the classes of a and b; references outside the space are
// ignored.
func (c *Classes) Union(a, b expr.ColRef) {
	ia, ib := c.ID(a), c.ID(b)
	if ia >= 0 && ib >= 0 {
		c.UnionID(ia, ib)
	}
}

// AddEqualities applies a list of column-equality conjuncts (the PE component
// of a predicate).
func (c *Classes) AddEqualities(pe []expr.EqualityConjunct) {
	for _, eq := range pe {
		c.Union(eq.A, eq.B)
	}
}

// Same reports whether a and b are known-equal. A column is always Same as
// itself, inside the space or not.
func (c *Classes) Same(a, b expr.ColRef) bool {
	if a == b {
		return true
	}
	ia, ib := c.ID(a), c.ID(b)
	return ia >= 0 && ib >= 0 && c.FindID(ia) == c.FindID(ib)
}

// IsTrivial reports whether r's class has no other member.
func (c *Classes) IsTrivial(r expr.ColRef) bool {
	id := c.ID(r)
	return id < 0 || c.size[c.FindID(id)] == 1
}

// Freeze ends construction: the representative of every column becomes a
// single load, the class enumeration is computed once, and further unions
// panic. Every method of a frozen collection is read-only, so it is safe to
// share across goroutines.
func (c *Classes) Freeze() {
	c.enumerate()
	for _, cls := range c.classes {
		root := c.FindID(cls[0])
		for _, m := range cls {
			c.parent[m] = root
		}
	}
	c.frozen = true
}

// NonTrivialIDs returns the classes with two or more members as ascending id
// lists, ordered by smallest member — the only classes the equijoin
// subsumption test examines (§3.1.2). The result aliases internal storage
// and is valid until the next union or reset.
func (c *Classes) NonTrivialIDs() [][]int32 {
	if !c.enumerated {
		c.enumerate()
	}
	return c.classes
}

func (c *Classes) enumerate() {
	slices.Sort(c.joined)
	c.joined = slices.Compact(c.joined)
	c.members = c.members[:0]
	c.classes = c.classes[:0]
	// Every member of a non-trivial class is in joined, so the first id of a
	// class met in ascending order is its smallest member.
next:
	for i, id := range c.joined {
		root := c.FindID(id)
		for _, cls := range c.classes {
			if c.FindID(cls[0]) == root {
				continue next
			}
		}
		start := len(c.members)
		for _, m := range c.joined[i:] {
			if c.FindID(m) == root {
				c.members = append(c.members, m)
			}
		}
		c.classes = append(c.classes, c.members[start:len(c.members):len(c.members)])
	}
	c.enumerated = true
}

// ClassIDs returns the members of x's class in ascending order when the class
// is non-trivial, and nil when x stands alone.
func (c *Classes) ClassIDs(x int32) []int32 {
	root := c.FindID(x)
	if c.size[root] == 1 {
		return nil
	}
	for _, cls := range c.NonTrivialIDs() {
		if c.FindID(cls[0]) == root {
			return cls
		}
	}
	return nil
}

// SubsetOf reports whether every class of c is contained in some class of
// other — the core of the equijoin subsumption test (§3.1.2): "every
// nontrivial view equivalence class is a subset of some query equivalence
// class". Trivial classes are vacuously contained. Both collections must be
// over the same column space.
func (c *Classes) SubsetOf(other *Classes) bool {
	for _, cls := range c.NonTrivialIDs() {
		root := other.FindID(cls[0])
		for _, m := range cls[1:] {
			if other.FindID(m) != root {
				return false
			}
		}
	}
	return true
}
