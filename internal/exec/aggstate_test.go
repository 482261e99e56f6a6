package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
)

// bigSum is the oracle: the exact sum of xs, rounded to nearest-even once.
func bigSum(xs []float64) float64 {
	sum := new(big.Float).SetPrec(4096) // every finite double and any sum of 10⁴ of them is exact
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	f, _ := sum.Float64()
	return f
}

func foldFloats(xs []float64) *aggState {
	var st aggState
	for _, x := range xs {
		st.count++
		st.addFloatSum(x)
	}
	return &st
}

// mergeTree folds xs through a random tree of partial states.
func mergeTree(t *testing.T, rng *rand.Rand, xs []float64) *aggState {
	if len(xs) <= 1 || rng.Intn(4) == 0 {
		return foldFloats(xs)
	}
	cut := rng.Intn(len(xs) + 1)
	l, r := mergeTree(t, rng, xs[:cut]), mergeTree(t, rng, xs[cut:])
	if err := l.merge(r); err != nil {
		t.Fatal(err)
	}
	return l
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// randomVector draws values whose exponents are spread wide enough that a
// naive sum is wrong in most vectors, with planted cancellations.
func randomVector(rng *rand.Rand) []float64 {
	xs := make([]float64, 1+rng.Intn(40))
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(120)-60)
		switch rng.Intn(8) {
		case 0:
			xs[i] = math.Trunc(xs[i])
		case 1:
			if i > 0 {
				xs[i] = -xs[rng.Intn(i)]
			}
		}
	}
	return xs
}

func TestFloatSumIsCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vectors := [][]float64{
		{1e16, 1, -1e16},
		{1e-16, 1, 1e16},      // half-even across three parts (math.fsum's own case)
		{1, 1e100, 1, -1e100}, // 2, where a running double says 0
		{0.1, 0.2, 0.3, -0.6}, // exact sum is a few ulps of 0.1 away from 0
		{math.MaxFloat64 / 8, math.MaxFloat64 / 8, -math.MaxFloat64 / 8},
		{5e-324, 5e-324, -5e-324}, // subnormals
		{math.Copysign(0, -1)},
		{math.Copysign(0, -1), 0},
		{1, -1},
	}
	for len(vectors) < 10_000 {
		vectors = append(vectors, randomVector(rng))
	}
	naiveWrong := 0
	for _, xs := range vectors {
		want := bigSum(xs)
		if negZeros := 0; want == 0 {
			for _, x := range xs {
				if x == 0 && math.Signbit(x) {
					negZeros++
				}
			}
			if negZeros == len(xs) {
				want = math.Copysign(0, -1) // as IEEE addition has it; big.Float's sum is +0
			}
		}
		got := foldFloats(xs).value().Float()
		if !sameFloat(got, want) {
			t.Fatalf("sum%v = %v, want %v", xs, got, want)
		}
		naive := 0.0
		for _, x := range xs {
			naive += x
		}
		if naive != want {
			naiveWrong++
		}
	}
	if naiveWrong < len(vectors)/4 {
		t.Errorf("only %d of %d vectors defeat a running double: the test has lost its teeth", naiveWrong, len(vectors))
	}
}

func TestFloatSumIgnoresOrderAndGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for v := 0; v < 200; v++ {
		xs := randomVector(rng)
		want := foldFloats(xs).value().Float()
		for p := 0; p < 100; p++ {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			st := mergeTree(t, rng, xs)
			if got := st.value().Float(); !sameFloat(got, want) || st.count != int64(len(xs)) {
				t.Fatalf("vector %d permutation %d: sum %v count %d, want %v count %d", v, p, got, st.count, want, len(xs))
			}
		}
	}
}

// TestFloatSumSpecials: non-finite inputs and overflow switch to plain
// addition; the result is what IEEE addition gives.
func TestFloatSumSpecials(t *testing.T) {
	inf, nan, big := math.Inf(1), math.NaN(), math.MaxFloat64
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, inf, 2}, inf},
		{[]float64{inf, 1e300, -1e300}, inf},
		{[]float64{1, -inf}, -inf},
		{[]float64{inf, -inf}, nan},
		{[]float64{1, nan, 2}, nan},
		{[]float64{nan}, nan},
		{[]float64{big, big}, inf},
		{[]float64{-big, -big, big}, -inf}, // the overflow corner: order decides
		{[]float64{big, 1, -big}, 0},       // above fsumLimit the sum is a running double
		{[]float64{big / 8, 1, -big / 8}, 1},
	} {
		st := foldFloats(tc.xs)
		if got := st.value().Float(); !sameFloat(got, tc.want) {
			t.Errorf("sum%v = %v, want %v", tc.xs, got, tc.want)
		}
		// Merging a special partial poisons the target the same way.
		var into aggState
		into.addFloatSum(0.5)
		if err := into.merge(st); err != nil {
			t.Fatal(err)
		}
		if got, want := into.value().Float(), 0.5+tc.want; !sameFloat(got, want) {
			t.Errorf("0.5 merged with sum%v = %v, want %v", tc.xs, got, want)
		}
	}
}

// TestAggStateKindTransitions pins accumulate to the SQL rule: BIGINT and
// DOUBLE addends fold as the sequential sqlvalue.Add fold does wherever that
// fold is exact (integer sums, BIGINT turning DOUBLE, NULL skipping), and
// the first DATE, VARCHAR or BOOLEAN addend is an error naming its kind —
// and checks merge against accumulate on every split.
func TestAggStateKindTransitions(t *testing.T) {
	i, f, d := sqlvalue.NewInt, sqlvalue.NewFloat, sqlvalue.NewDate
	null, str, yes := sqlvalue.Null, sqlvalue.NewString("x"), sqlvalue.NewBool(true)
	for _, vals := range [][]sqlvalue.Value{
		{}, {null, null}, {i(3)}, {i(3), null, i(4)}, {i(math.MaxInt64), i(1)},
		{d(100)}, {null, d(100), null}, {d(100), d(50)}, {d(100), i(2)}, {i(2), d(100)}, {d(100), f(0.5)},
		{i(1), i(2), f(0.25)}, {f(0.25), i(1), i(2)}, {i(1 << 52), f(1), f(1)},
		{f(1.5), null, f(2.25)}, {f(math.Copysign(0, -1))}, {f(math.Copysign(0, -1)), f(math.Copysign(0, -1))},
		{str}, {yes}, {null, str}, {str, i(1)}, {i(1), str}, {f(1), yes}, {str, str}, {d(1), str},
	} {
		want, wantErr := sqlvalue.Null, error(nil)
		for _, v := range vals {
			switch k := v.Kind(); {
			case v.IsNull() || wantErr != nil:
			case k != sqlvalue.KindInt && k != sqlvalue.KindFloat:
				wantErr = fmt.Errorf("exec: cannot sum %s values", k)
			case want.IsNull():
				want = v
			default:
				want, wantErr = sqlvalue.Add(want, v)
			}
		}
		for cut := 0; cut <= len(vals); cut++ {
			var l, r aggState
			var err error
			for k, v := range vals {
				st := &l
				if k >= cut {
					st = &r
				}
				st.count++
				if e := st.accumulate(v); e != nil && err == nil {
					err = e
				}
			}
			if e := l.merge(&r); e != nil && err == nil {
				err = e
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Errorf("%v cut %d: error %v, want %v", vals, cut, err, wantErr)
				continue
			}
			if got := l.value(); err == nil && !(got.Kind() == want.Kind() && got.String() == want.String()) {
				t.Errorf("%v cut %d: sum %v (%v), want %v (%v)", vals, cut, got, got.Kind(), want, want.Kind())
			}
			if err == nil && l.count != int64(len(vals)) {
				t.Errorf("%v cut %d: count %d", vals, cut, l.count)
			}
		}
	}
}

// TestFloatSumAllocations: an expansion of up to three parts lives in the
// state; a longer one costs its state a couple of allocations over its whole
// life, however many rows it folds.
func TestFloatSumAllocations(t *testing.T) {
	short := []float64{1e16, 1, -1e16, 0.25, 1e-3}
	if n := testing.AllocsPerRun(10, func() { foldFloats(short) }); n > 1 {
		t.Errorf("a three-part sum: %v allocations, want only the state", n)
	}
	rng := rand.New(rand.NewSource(3))
	prices := make([]float64, 100_000)
	for i := range prices {
		prices[i] = math.Round(float64(1+rng.Intn(50))*(900+rng.Float64()*1200)*100) / 100
	}
	var st *aggState
	if n := testing.AllocsPerRun(3, func() { st = foldFloats(prices) }); n > 5 {
		t.Errorf("folding %d prices: %v allocations, want a handful", len(prices), n)
	}
	if got, want := st.value().Float(), bigSum(prices); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// TestSumRefusesNonNumericArguments: SUM and AVG over a DATE, a VARCHAR or a
// BOOLEAN column fail with the error naming its kind — through a bare scan's
// aggregation and one over a join, at every worker count, exactly as the
// reference does.
func TestSumRefusesNonNumericArguments(t *testing.T) {
	db := joinDB(t, 20, 200)
	fact := &TableScan{Table: "fact", NCols: 8}
	join := &HashJoin{L: &TableScan{Table: "dim", NCols: 8}, R: fact, LCols: []int{1}, RCols: []int{1}}
	for col, kind := range map[int]sqlvalue.Kind{3: sqlvalue.KindString, 4: sqlvalue.KindDate, 5: sqlvalue.KindBool} {
		want := fmt.Sprintf("exec: cannot sum %s values", kind)
		for _, agg := range []spjg.AggKind{spjg.AggSum, spjg.AggAvg} {
			for _, in := range []Node{fact, join} {
				plan := &HashAgg{In: in, GroupBy: []expr.Expr{expr.Col(0, 0)}, Aggs: []AggSpec{
					{Num: SimpleAgg{Kind: spjg.AggCountStar}},
					{Num: SimpleAgg{Kind: agg, Arg: expr.Col(0, col)}},
				}}
				if _, err := RunReference(db, plan); err == nil || err.Error() != want {
					t.Fatalf("%s over %s: reference error %v, want %q", agg, kind, err, want)
				}
				for _, workers := range []int{1, 2, 4} {
					if _, err := (&Engine{Workers: workers, BatchSize: 16}).Run(db, plan); err == nil || err.Error() != want {
						t.Fatalf("%s over %s, w=%d: engine error %v, want %q", agg, kind, workers, err, want)
					}
				}
			}
		}
	}
}
