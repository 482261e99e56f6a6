package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// joinDB builds a two-table fixture exercising every join-key class the rid
// path specializes: int, float (integral, fractional, NaN), string, date,
// bool, a NULL-heavy int key, and a DOUBLE column of whole numbers that meets
// the int keys across kinds. Both tables share the column layout so any
// column pair can key a join.
//
// dim/fact columns: 0 id(int) 1 key_int(int,NULL-heavy) 2 key_float(float)
// 3 key_str(string) 4 key_date(date) 5 key_bool(bool) 6 key_whole(float)
// 7 val(int)
func joinDB(t *testing.T, dimRows, factRows int) *storage.Database {
	t.Helper()
	c := catalog.New()
	for _, name := range []string{"dim", "fact"} {
		if err := c.Add(&catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", Type: sqlvalue.KindInt, NotNull: true},
				{Name: "key_int", Type: sqlvalue.KindInt},
				{Name: "key_float", Type: sqlvalue.KindFloat},
				{Name: "key_str", Type: sqlvalue.KindString},
				{Name: "key_date", Type: sqlvalue.KindDate},
				{Name: "key_bool", Type: sqlvalue.KindBool},
				{Name: "key_whole", Type: sqlvalue.KindFloat},
				{Name: "val", Type: sqlvalue.KindInt, NotNull: true},
			},
			PrimaryKey: []int{0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(c)
	fill := func(table string, n int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			// NULL-heavy int key: a third of the rows carry no key at all.
			keyInt := sqlvalue.Null
			if rng.Intn(3) > 0 {
				keyInt = sqlvalue.NewInt(int64(rng.Intn(8)))
			}
			// Floats cover the integral fast path, genuine fractions, NaN
			// (which AppendKey collapses to one key, so NaN = NaN matches),
			// negative zero, and NULL.
			var keyFloat sqlvalue.Value
			switch rng.Intn(6) {
			case 0:
				keyFloat = sqlvalue.NewFloat(float64(rng.Intn(5))) // integral
			case 1:
				keyFloat = sqlvalue.NewFloat(float64(rng.Intn(3)) + 0.5)
			case 2:
				keyFloat = sqlvalue.NewFloat(math.NaN())
			case 3:
				keyFloat = sqlvalue.NewFloat(math.Copysign(0, -1))
			case 4:
				keyFloat = sqlvalue.Null
			default:
				keyFloat = sqlvalue.NewFloat(-1.25)
			}
			keyStr := sqlvalue.Null
			if rng.Intn(4) > 0 {
				keyStr = sqlvalue.NewString(fmt.Sprintf("s%d", rng.Intn(6)))
			}
			// key_whole: integral floats, which must meet equal ints.
			keyWhole := sqlvalue.Null
			if rng.Intn(4) > 0 {
				keyWhole = sqlvalue.NewFloat(float64(rng.Intn(8)))
			}
			row := storage.Row{
				sqlvalue.NewInt(int64(i)),
				keyInt,
				keyFloat,
				keyStr,
				sqlvalue.NewDate(int64(19000 + rng.Intn(5))),
				sqlvalue.NewBool(rng.Intn(2) == 0),
				keyWhole,
				sqlvalue.NewInt(int64(rng.Intn(1000))),
			}
			db.Table(table).Store().AppendRow(row)
		}
	}
	fill("dim", dimRows, 7)
	fill("fact", factRows, 11)
	db.RefreshStats()
	return db
}

// joinSweepPlans covers the key modes and pipeline shapes of the rid path:
// every typed codec, the boxed fallback, cross-kind probes, residuals,
// fused filters, projections (fused and narrowed), multi-join rid tuples,
// and aggregation directly over rid tuples.
func joinSweepPlans() map[string]Node {
	dim := func() Node { return &TableScan{Table: "dim", NCols: 8} }
	fact := func() Node { return &TableScan{Table: "fact", NCols: 8} }
	join := func(lc, rc int) *HashJoin {
		return &HashJoin{L: dim(), R: fact(), LCols: []int{lc}, RCols: []int{rc}}
	}
	threeWay := &HashJoin{
		L: &HashJoin{L: dim(), R: fact(), LCols: []int{1}, RCols: []int{1}},
		R: dim(),
		// Left side is dim++fact (16 cols); join its fact key_date to the
		// outer dim's key_date.
		LCols: []int{12},
		RCols: []int{4},
	}
	return map[string]Node{
		"int-null-heavy":  join(1, 1),
		"float":           join(2, 2),
		"string":          join(3, 3),
		"date":            join(4, 4),
		"bool-fanout":     join(5, 5),
		"int-vs-float":    join(1, 2),
		"float-vs-int":    join(2, 1),
		"str-vs-int-miss": join(3, 1),
		"multi-int-key": &HashJoin{
			L: dim(), R: fact(),
			LCols: []int{1, 4}, RCols: []int{1, 4},
		},
		"int-vs-whole":    join(1, 6),
		"whole-vs-int":    join(6, 1),
		"int-vs-str-miss": join(1, 3),
		"boxed-mixed-kinds": &HashJoin{
			L: dim(), R: fact(),
			LCols: []int{1, 3}, RCols: []int{6, 3},
		},
		"residual": &HashJoin{
			L: dim(), R: fact(), LCols: []int{1}, RCols: []int{1},
			Residual: expr.NewCmp(expr.GT, expr.Col(0, 15), expr.Col(0, 7)),
		},
		"filtered-leaves": &HashJoin{
			L: &TableScan{Table: "dim", NCols: 8,
				Filter: expr.NewCmp(expr.LT, expr.Col(0, 0), expr.CInt(40))},
			R: &TableScan{Table: "fact", NCols: 8,
				Filter: expr.NewCmp(expr.GE, expr.Col(0, 7), expr.CInt(250))},
			LCols: []int{1}, RCols: []int{1},
		},
		"filter-over-join": &Filter{
			In:   join(1, 1),
			Pred: expr.NewCmp(expr.NE, expr.Col(0, 7), expr.Col(0, 15)),
		},
		"project-fused": &Project{
			In:    join(1, 1),
			Exprs: []expr.Expr{expr.Col(0, 0), expr.Col(0, 8), expr.CStr("tag")},
		},
		"project-narrowed": &Project{
			In: join(1, 1),
			Exprs: []expr.Expr{
				expr.NewArith(expr.Add, expr.Col(0, 7), expr.Col(0, 15)),
			},
		},
		"three-way": threeWay,
		"three-way-agg": &HashAgg{
			In:      threeWay,
			GroupBy: []expr.Expr{expr.Col(0, 3)},
			Aggs: []AggSpec{
				{Num: SimpleAgg{Kind: spjg.AggCountStar}},
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 15)}},
				{Num: SimpleAgg{Kind: spjg.AggAvg, Arg: expr.Col(0, 23)},
					Den: &SimpleAgg{Kind: spjg.AggCountStar}},
			},
		},
		"join-over-agg": &HashJoin{
			L: &HashAgg{
				In:      fact(),
				GroupBy: []expr.Expr{expr.Col(0, 1)},
				Aggs:    []AggSpec{{Num: SimpleAgg{Kind: spjg.AggCountStar}}},
			},
			R:     fact(),
			LCols: []int{0},
			RCols: []int{1},
		},
	}
}

// TestJoinEquivalenceSweep pins the join pipeline to the reference evaluator
// byte-for-byte: every plan shape runs at every worker count × batch size
// (including non-block-aligned sizes that split selection vectors mid-block)
// and must reproduce the reference rows in order. The build side's columns
// select the key codec: typed for single-kind keys, boxed for mixed-kind
// multi-column keys and the row-backed build side.
func TestJoinEquivalenceSweep(t *testing.T) {
	db := joinDB(t, 80, 400)
	for name, plan := range joinSweepPlans() {
		want, err := RunReference(db, plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, bs := range []int{1, 3, 7, 64, 1024} {
				got, err := (&Engine{Workers: workers, BatchSize: bs}).Run(db, plan)
				if err != nil {
					t.Fatalf("%s w=%d bs=%d: %v", name, workers, bs, err)
				}
				if !rowsExactlyEqual(got, want) {
					t.Fatalf("%s w=%d bs=%d: output differs (%d vs %d rows)",
						name, workers, bs, len(got), len(want))
				}
			}
		}
	}
}

// TestJoinEquivalenceRandomChains fuzzes multi-join rid-tuple pipelines:
// random left-deep chains of 2–4 hash joins over random compatible key
// columns, with random residuals and an optional aggregate on top. Every
// plan must agree with the reference at every worker count, at a batch size
// that forces tuples through many selection-vector batches; a mixed-kind
// two-column key puts chains on the boxed codec, the others on typed, and a
// whole DOUBLE key probes BIGINT keys across kinds.
func TestJoinEquivalenceRandomChains(t *testing.T) {
	db := joinDB(t, 40, 120)
	rng := rand.New(rand.NewSource(42))
	keys := []struct{ l, r []int }{ // int, float, string, date, whole ⋈ int, mixed
		{[]int{1}, []int{1}}, {[]int{2}, []int{2}}, {[]int{3}, []int{3}}, {[]int{4}, []int{4}},
		{[]int{6}, []int{1}}, {[]int{1, 3}, []int{6, 3}},
	}
	for trial := 0; trial < 32; trial++ {
		tables := []string{"dim", "fact"}
		var plan Node = &TableScan{Table: tables[rng.Intn(2)], NCols: 8}
		width := 8
		joins := 1 + rng.Intn(3)
		for j := 0; j < joins; j++ {
			k := keys[rng.Intn(len(keys))]
			// Key the new join on columns of one key space on both sides so
			// matches actually occur; the left key lands in a random
			// already-joined relation's copy of its columns.
			loff := rng.Intn(width/8) * 8
			h := &HashJoin{
				L:     plan,
				R:     &TableScan{Table: tables[rng.Intn(2)], NCols: 8},
				RCols: k.r,
			}
			for _, c := range k.l {
				h.LCols = append(h.LCols, loff+c)
			}
			if rng.Intn(3) == 0 {
				h.Residual = expr.NewCmp(expr.LE, expr.Col(0, loff+7), expr.Col(0, width+7))
			}
			plan = h
			width += 8
		}
		if rng.Intn(3) == 0 {
			plan = &HashAgg{
				In:      plan,
				GroupBy: []expr.Expr{expr.Col(0, 3)},
				Aggs: []AggSpec{
					{Num: SimpleAgg{Kind: spjg.AggCountStar}},
					{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, width-1)}},
				},
			}
		}
		want, err := RunReference(db, plan)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := (&Engine{Workers: workers, BatchSize: 13}).Run(db, plan)
			if err != nil {
				t.Fatalf("trial %d w=%d: %v", trial, workers, err)
			}
			if !rowsExactlyEqual(got, want) {
				t.Fatalf("trial %d w=%d: output differs (%d vs %d rows)\nplan:\n%s",
					trial, workers, len(got), len(want), Explain(plan))
			}
		}
	}
}
