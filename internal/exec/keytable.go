package exec

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"slices"
)

// keyList is a flat list of keys of one shape: tuples of width int64 words
// (width ≥ 1), or byte strings (width 0). Join builds collect their input's
// keys in one; a keyTable keeps its distinct keys in one.
type keyList struct {
	width int
	words []int64 // width > 0: key e is words[e*width : (e+1)*width]
	bytes []byte  // width == 0: key e is bytes[ends[e-1]:ends[e]]
	ends  []int32
}

func (l *keyList) wordsOf(e int) []int64 { return l.words[e*l.width : (e+1)*l.width] }

func (l *keyList) bytesOf(e int) []byte {
	if e == 0 {
		return l.bytes[:l.ends[0]]
	}
	return l.bytes[l.ends[e-1]:l.ends[e]]
}

func (l *keyList) reset() { l.words, l.bytes, l.ends = l.words[:0], l.bytes[:0], l.ends[:0] }

// keep drops the entries from at on that live does not list: entry
// at+live[i] becomes entry at+i. A dropped byte string must be empty.
func (l *keyList) keep(at int, live []int32) {
	w, n := l.width, at+len(live)
	for i, k := range live {
		if w == 0 {
			l.ends[at+i] = l.ends[at+int(k)]
		} else {
			copy(l.words[(at+i)*w:], l.wordsOf(at+int(k)))
		}
	}
	if l.words = l.words[:n*w]; w == 0 {
		l.ends = l.ends[:n]
	}
}

// keyTable assigns dense ids — 0, 1, 2, … in order of first insertion — to
// distinct keys. It is the one hash table of the engine: join builds
// map a key to its slot in the CSR arrays, group tables map a key to its
// group. Open addressing with linear probing over a power-of-two slot array
// kept at most half full; key id is entry id of the embedded list, so a table
// of any size is a handful of allocations.
type keyTable struct {
	keyList
	n     int32
	shift uint    // 64 − log2(len(slots)): a hash's top bits are its home slot
	slots []int32 // id+1 of the key living there; 0 = empty
}

var keySeed = maphash.MakeSeed()

// newKeyTable returns a table for keys of the given width with room for
// hint keys before it first grows.
func newKeyTable(width, hint int) keyTable {
	t := keyTable{keyList: keyList{width: width, words: make([]int64, 0, hint*width)}}
	t.resize(max(hint, 2))
	return t
}

// reset empties the table, keeping its memory.
func (t *keyTable) reset() {
	t.keyList.reset()
	t.n = 0
	clear(t.slots)
}

// resize gives the table 2^k ≥ 2·keys slots and re-seats every id.
func (t *keyTable) resize(keys int) {
	lg := uint(bits.Len(uint(2*keys - 1)))
	t.shift = 64 - lg
	t.slots = make([]int32, 1<<lg)
	for id := int32(0); id < t.n; id++ {
		t.seat(id, t.hashOf(&t.keyList, int(id)))
	}
}

// seat puts id, whose key hashes to h, in the first free slot from its home.
func (t *keyTable) seat(id int32, h uint64) {
	i := h >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & uint64(len(t.slots)-1)
	}
	t.slots[i] = id + 1
}

func hashInt(k int64) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// hashOf hashes key e of l, a list of this table's shape.
func (t *keyTable) hashOf(l *keyList, e int) uint64 {
	if t.width == 0 {
		return maphash.Bytes(keySeed, l.bytesOf(e))
	}
	var h uint64
	for _, w := range l.wordsOf(e) {
		h = hashInt(int64(h) ^ w)
	}
	return h
}

// find returns the id of key e of l, a list of this table's shape, or -1.
func (t *keyTable) find(l *keyList, e int) int32 {
	id, _ := t.slot(l, e)
	return id
}

// slot is find that also returns the slot where the search ended: the key's,
// or the empty one an insert takes.
func (t *keyTable) slot(l *keyList, e int) (int32, uint64) {
	mask := uint64(len(t.slots) - 1)
	if t.width == 1 { // the common key, 4 ns this way against 17 the general way
		k := l.words[e]
		for i := hashInt(k) >> t.shift; ; i = (i + 1) & mask {
			if id := t.slots[i]; id == 0 || t.words[id-1] == k {
				return id - 1, i
			}
		}
	}
	if t.width == 2 { // a float key, or two int keys
		a, b := l.words[2*e], l.words[2*e+1]
		for i := hashInt(int64(hashInt(a))^b) >> t.shift; ; i = (i + 1) & mask {
			if id := t.slots[i]; id == 0 || t.words[2*id-2] == a && t.words[2*id-1] == b {
				return id - 1, i
			}
		}
	}
	for i := t.hashOf(l, e) >> t.shift; ; i = (i + 1) & mask {
		id := t.slots[i]
		switch {
		case id == 0:
			return -1, i
		case t.width == 0 && bytes.Equal(t.bytesOf(int(id-1)), l.bytesOf(e)),
			t.width > 0 && slices.Equal(t.wordsOf(int(id-1)), l.wordsOf(e)):
			return id - 1, i
		}
	}
}

// put returns the id of key e of l, inserting it if absent: the key was new
// iff the returned id equals the number of keys before the call.
func (t *keyTable) put(l *keyList, e int) int32 {
	id, i := t.slot(l, e)
	if id >= 0 {
		return id
	}
	if t.width > 0 {
		t.words = append(t.words, l.wordsOf(e)...)
	} else {
		t.bytes = append(t.bytes, l.bytesOf(e)...)
		t.ends = append(t.ends, int32(len(t.bytes)))
	}
	if t.n++; 2*int(t.n) > len(t.slots) {
		t.resize(2 * int(t.n)) // seats the new key too
	} else {
		t.slots[i] = t.n
	}
	return t.n - 1
}

// findInts is find over a list of width-1 keys: ids[e] becomes the id of key
// e, or -1; an e whose ids[e] is negative on entry is skipped. The first loop
// only loads every key's home slot — loads that depend on nothing and overlap
// — so the second, which has to branch on them, finds them in cache.
func (t *keyTable) findInts(keys []int64, ids []int32) {
	mask := uint64(len(t.slots) - 1)
	for e, k := range keys {
		if ids[e] >= 0 {
			ids[e] = t.slots[hashInt(k)>>t.shift]
		}
	}
	for e, k := range keys {
		id := ids[e]
		if id < 0 {
			continue
		}
		for i := hashInt(k) >> t.shift; id != 0 && t.words[id-1] != k; id = t.slots[i] {
			i = (i + 1) & mask
		}
		ids[e] = id - 1
	}
}

// putAll is put over keys [lo,hi) of l, into ids. The home slots of width-1
// keys are loaded ahead as in findInts.
func (t *keyTable) putAll(l *keyList, lo, hi int, ids []int32) {
	if t.width == 1 {
		for e, k := range l.words[lo:hi] {
			ids[e] = t.slots[hashInt(k)>>t.shift]
		}
	}
	for e := lo; e < hi; e++ {
		ids[e-lo] = t.put(l, e)
	}
}
