package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// TestKeyTableAgainstMap: ids are dense and in first-insertion order, finds
// agree with a Go map, across growth from the smallest table through many
// doublings — for int keys (single, batched and adversarial), word tuples and
// byte strings.
func TestKeyTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ints := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	for i := int64(1); i < 3000; i++ {
		ints = append(ints, i<<16, i<<32, -i<<20) // multiples of any table size this test reaches
	}
	for i := 0; i < 20_000; i++ {
		ints = append(ints, rng.Int63n(5000)-2500, rng.Int63()-rng.Int63())
	}
	keys := keyList{width: 1, words: ints}
	tab, want := newKeyTable(1, 0), map[int64]int32{}
	ids := make([]int32, 100)
	for lo := 0; lo < len(ints); lo += len(ids) { // batches, as a join build inserts
		hi := min(lo+len(ids), len(ints))
		tab.putAll(&keys, lo, hi, ids)
		for e := lo; e < hi; e++ {
			id, seen := want[ints[e]]
			if !seen {
				id = int32(len(want))
				want[ints[e]] = id
			}
			if ids[e-lo] != id {
				t.Fatalf("key %d (entry %d): id %d, want %d", ints[e], e, ids[e-lo], id)
			}
		}
	}
	if int(tab.n) != len(want) || len(tab.slots) < 2*len(want) || len(tab.slots) > 8*len(want) {
		t.Fatalf("%d keys in %d slots, want %d keys at a load in (1/8, 1/2]", tab.n, len(tab.slots), len(want))
	}
	probes := keyList{width: 1, words: append(append([]int64{}, ints[:5000]...), 7777777, -7777777, 1<<16+1, math.MinInt64+1)}
	got := make([]int32, len(probes.words))
	got[3] = -1 // a NULL key: skipped
	tab.findInts(probes.words, got)
	for e, k := range probes.words {
		id, seen := want[k]
		if !seen || e == 3 {
			id = -1
		}
		if got[e] != id || e != 3 && tab.find(&probes, e) != id {
			t.Fatalf("find %d: batched %d, single %d, want %d", k, got[e], tab.find(&probes, e), id)
		}
	}

	// Word tuples and byte strings that a naive concatenation would confuse.
	pairs := keyList{width: 2, words: []int64{1, 23, 12, 3, 0, 0, 0, 1, 1, 0, 1, 23, math.MinInt64, -1, 0, 0}}
	strs := keyList{}
	for _, s := range []string{"", "a", "ab", "a", "b", "", "a\x00", "ab"} {
		strs.bytes = append(strs.bytes, s...)
		strs.ends = append(strs.ends, int32(len(strs.bytes)))
	}
	for name, tc := range map[string]struct {
		l    *keyList
		want []int32
	}{
		"pairs": {&pairs, []int32{0, 1, 2, 3, 4, 0, 5, 2}},
		"bytes": {&strs, []int32{0, 1, 2, 1, 3, 0, 4, 2}},
	} {
		tab := newKeyTable(tc.l.width, 0)
		for round := 0; round < 2; round++ { // the second round only finds
			for e, want := range tc.want {
				if id := tab.put(tc.l, e); id != want {
					t.Errorf("%s: put entry %d = %d, want %d", name, e, id, want)
				}
				if id := tab.find(tc.l, e); id != want {
					t.Errorf("%s: find entry %d = %d, want %d", name, e, id, want)
				}
			}
		}
	}
	many := keyList{}
	for i := 0; i < 5000; i++ {
		many.bytes = fmt.Appendf(many.bytes, "key-%d", i%3000)
		many.ends = append(many.ends, int32(len(many.bytes)))
	}
	tab = newKeyTable(0, 0)
	for e := range many.ends {
		if id := tab.put(&many, e); int(id) != e%3000 {
			t.Fatalf("byte key %d: id %d", e, id)
		}
	}
}

// TestRidBuildIsCSRInInputOrder checks the build table against the
// definition the per-key slices used to implement: for every key mode, the
// keys are sqlvalue.AppendKey's equality classes of the non-NULL build keys,
// and each key's rid list is the build input's order — whatever the number of
// workers and however many morsels a key's duplicates span.
func TestRidBuildIsCSRInInputOrder(t *testing.T) {
	db := joinDB(t, 300, 10)
	dim := db.Table("dim").Rows()
	for name, cols := range map[string][]int{
		"int1": {1}, "float1": {2}, "str1": {3}, "date1": {4}, "bool1": {5},
		"intN": {1, 4}, "float-whole": {6}, "boxed-mixed-kinds": {1, 3}, "boxed-int-float": {1, 6},
	} {
		want, order := map[string][]int32{}, []string{}
	rows:
		for rid, r := range dim {
			var key []byte // the reference's: Value.Key bytes joined by 0x1f, none for a NULL
			for _, c := range cols {
				if r[c].IsNull() {
					continue rows
				}
				key = append(r[c].AppendKey(key), '\x1f')
			}
			if _, seen := want[string(key)]; !seen {
				order = append(order, string(key))
			}
			want[string(key)] = append(want[string(key)], int32(rid))
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, bs := range []int{1, 7, 1024} {
				e := &Engine{Workers: workers, BatchSize: bs}
				b, _, err := e.buildRidJoin(db, &HashJoin{L: &TableScan{Table: "dim", NCols: 8}, LCols: cols})
				if err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				if boxed := strings.HasPrefix(name, "boxed"); boxed != (b.mode == keyModeBoxed) {
					t.Fatalf("%s: key mode %d", name, b.mode)
				}
				if int(b.tab.n) != len(want) || len(b.starts) != len(want)+1 {
					t.Fatalf("%s w=%d bs=%d: %d keys, want %d", name, workers, bs, b.tab.n, len(want))
				}
				for id, key := range order { // ids follow first appearance in the input
					got := b.rids[b.starts[id]:b.starts[id+1]]
					if fmt.Sprint(got) != fmt.Sprint(want[key]) {
						t.Fatalf("%s w=%d bs=%d: key %q has rids %v, want %v", name, workers, bs, key, got, want[key])
					}
				}
			}
		}
	}
	// An empty build input, and one whose keys are all NULL, are empty tables
	// that every probe misses.
	empty := &TableScan{Table: "dim", NCols: 8, Filter: expr.NewCmp(expr.LT, expr.Col(0, 0), expr.CInt(0))}
	allNull := &TableScan{Table: "dim", NCols: 8, Filter: expr.IsNull{E: expr.Col(0, 1)}}
	for _, l := range []Node{empty, allNull} {
		j := &HashJoin{L: l, R: &TableScan{Table: "fact", NCols: 8}, LCols: []int{1}, RCols: []int{1}}
		b, _, err := (&Engine{Workers: 4, BatchSize: 7}).buildRidJoin(db, j)
		if err != nil || b.tab.n != 0 || len(b.rids) != 0 || len(b.starts) != 1 {
			t.Fatalf("empty build: %+v, %v", b, err)
		}
		if rows, err := (&Engine{Workers: 4, BatchSize: 7}).Run(db, j); err != nil || len(rows) != 0 {
			t.Fatalf("join on an empty build: %d rows, %v", len(rows), err)
		}
	}
}

// groupDB is one table of nullable int, date and string columns whose rows
// put NULL and zero, and pairs that concatenate alike, into different groups.
func groupDB(t *testing.T, n int) *storage.Database {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{Name: "g", Columns: []catalog.Column{
		{Name: "a", Type: sqlvalue.KindInt}, {Name: "b", Type: sqlvalue.KindInt},
		{Name: "d", Type: sqlvalue.KindDate}, {Name: "s", Type: sqlvalue.KindString},
		{Name: "x", Type: sqlvalue.KindFloat}, {Name: "k", Type: sqlvalue.KindInt, NotNull: true},
	}}); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	rng := rand.New(rand.NewSource(9))
	ab := [][2]sqlvalue.Value{
		{sqlvalue.NewInt(1), sqlvalue.NewInt(23)}, {sqlvalue.NewInt(12), sqlvalue.NewInt(3)},
		{sqlvalue.Null, sqlvalue.NewInt(0)}, {sqlvalue.NewInt(0), sqlvalue.Null},
		{sqlvalue.NewInt(0), sqlvalue.NewInt(0)}, {sqlvalue.Null, sqlvalue.Null},
		{sqlvalue.NewInt(-1), sqlvalue.NewInt(1)}, {sqlvalue.NewInt(1), sqlvalue.NewInt(-1)},
	}
	for i := 0; i < n; i++ {
		p := ab[rng.Intn(len(ab))]
		d := sqlvalue.Null
		if rng.Intn(4) > 0 {
			d = sqlvalue.NewDate(int64(19000 + rng.Intn(3)))
		}
		row := storage.Row{p[0], p[1], d, sqlvalue.NewString(fmt.Sprintf("s%d", rng.Intn(4))),
			sqlvalue.NewFloat(float64(rng.Intn(1000)) / 7), sqlvalue.NewInt(int64(rng.Intn(40)))}
		if err := db.Table("g").Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestGroupTableKeysAndOrder: typed word keys (with and without the NULL
// word) and byte keys form the reference's groups and emit them in its
// first-seen order, also after merging many workers' tables.
func TestGroupTableKeysAndOrder(t *testing.T) {
	db := groupDB(t, 600)
	scan := &TableScan{Table: "g", NCols: 6}
	aggs := []AggSpec{
		{Num: SimpleAgg{Kind: spjg.AggCountStar}},
		{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 4)}},
		{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 1)}},
		{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: expr.NewArith(expr.Mul, expr.Col(0, 4), expr.Col(0, 5))}},
	}
	for name, tc := range map[string]struct {
		keys          []int
		typed, masked bool
	}{
		"scalar":         {nil, false, false},
		"int-not-null":   {[]int{5}, true, false},
		"int-nullable":   {[]int{0}, true, true},
		"two-ints":       {[]int{0, 1}, true, true},
		"int-and-date":   {[]int{5, 2}, true, true},
		"string":         {[]int{3}, false, false},
		"int-and-str":    {[]int{0, 3}, false, true},
		"float":          {[]int{4}, false, false},
		"same-col-twice": {[]int{1, 1}, true, true},
	} {
		a := &HashAgg{In: scan, Aggs: aggs}
		for _, k := range tc.keys {
			a.GroupBy = append(a.GroupBy, expr.Col(0, k))
		}
		st := db.Table("g").Store()
		cols := make([]storage.ColView, st.NumCols())
		for c := range cols {
			cols[c] = st.Col(c)
		}
		if g := newRidAggSink(a, singleLayout(storeRel(st, cols))).g; g.typed != tc.typed || g.masked != tc.masked {
			t.Errorf("%s: typed=%v masked=%v, want %v %v", name, g.typed, g.masked, tc.typed, tc.masked)
		}
		want, err := RunReference(db, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, bs := range []int{1, 7, 1024} {
				got, err := (&Engine{Workers: workers, BatchSize: bs}).Run(db, a)
				if err != nil {
					t.Fatal(err)
				}
				if !rowsExactlyEqual(got, want) {
					t.Fatalf("%s w=%d bs=%d: groups differ from the reference\n got %v\nwant %v", name, workers, bs, got, want)
				}
			}
		}
	}
}

// TestFloatAggDeterministic: a float SUM is a function of its inputs, not of
// the schedule. A grouped float aggregate over a join and a scalar float SUM
// over a scan, 200 times each at eight workers and two batch sizes, give one
// answer, byte for byte, and it is the reference's.
func TestFloatAggDeterministic(t *testing.T) {
	db := groupDB(t, 12_000)
	scan := func(filter expr.Expr) Node { return &TableScan{Table: "g", NCols: 6, Filter: filter} }
	few := expr.NewAnd(expr.NewCmp(expr.LT, expr.Col(0, 5), expr.CInt(2)), expr.NewCmp(expr.EQ, expr.Col(0, 3), expr.CStr("s0")))
	x, y := expr.Col(0, 4), expr.Col(0, 10)
	plans := map[string]Node{
		"group-by-over-join": &HashAgg{
			In:      &HashJoin{L: scan(few), R: scan(nil), LCols: []int{5}, RCols: []int{5}},
			GroupBy: []expr.Expr{expr.Col(0, 8)},
			Aggs: []AggSpec{
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: y}},
				{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: expr.NewArith(expr.Mul, x, y)}},
			},
		},
		"scalar-sum": &HashAgg{In: scan(nil), Aggs: []AggSpec{{Num: SimpleAgg{Kind: spjg.AggSum, Arg: x}}}},
	}
	for name, plan := range plans {
		ref, err := RunReference(db, plan)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(ref)
		for _, bs := range []int{7, 1024} {
			e := &Engine{Workers: 8, BatchSize: bs}
			for run := 0; run < 200; run++ {
				rows, err := e.Run(db, plan)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(rows); got != want {
					t.Fatalf("%s bs=%d run %d:\n got %s\nwant %s", name, bs, run, got, want)
				}
			}
		}
	}
}
