package exec

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// benchRel is a table of n rows whose columns are an INTEGER k, a DOUBLE f
// and a VARCHAR s, each holding key(r) for row r in its own kind (the DOUBLE
// as key(r) + 0.5), and an INTEGER i and a DOUBLE x of payload.
type benchRel struct {
	name string
	n    int
	key  func(r int) int64
}

func benchDB(b *testing.B, rels ...benchRel) *storage.Database {
	b.Helper()
	c := catalog.New()
	for _, rel := range rels {
		if err := c.Add(&catalog.Table{Name: rel.name, Columns: []catalog.Column{
			{Name: "k", Type: sqlvalue.KindInt, NotNull: true}, {Name: "f", Type: sqlvalue.KindFloat, NotNull: true},
			{Name: "s", Type: sqlvalue.KindString, NotNull: true}, {Name: "i", Type: sqlvalue.KindInt, NotNull: true},
			{Name: "x", Type: sqlvalue.KindFloat, NotNull: true},
		}}); err != nil {
			b.Fatal(err)
		}
	}
	db := storage.NewDatabase(c)
	for _, rel := range rels {
		for r := 0; r < rel.n; r++ {
			k := rel.key(r)
			if err := db.Table(rel.name).Insert(storage.Row{sqlvalue.NewInt(k), sqlvalue.NewFloat(float64(k) + 0.5),
				sqlvalue.NewString(fmt.Sprintf("key%06d", k)), sqlvalue.NewInt(int64(r % 1000)), sqlvalue.NewFloat(float64(r%1000) / 8)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// pushBlocks pushes every block of a store of n rows, as one-relation rid
// batches, into p — what a scan with no filter hands its pipeline.
func pushBlocks(b *testing.B, n int, begin func(seq int), p ridPusher) {
	var rids []int32
	for lo, seq := 0, 0; lo < n; lo, seq = lo+storage.BlockRows, seq+1 {
		rids = appendRun(rids[:0], lo, min(lo+storage.BlockRows, n))
		if begin != nil {
			begin(seq)
		}
		if err := p.pushRids(&ridBatch{n: len(rids), sel: [][]int32{rids}}); err != nil {
			b.Fatal(err)
		}
	}
}

type countSink struct{ n int }

func (c *countSink) pushRids(in *ridBatch) error { c.n += in.n; return nil }

// BenchmarkJoinProbe measures a hash-join probe stage's cost per probed
// tuple: 64 blocks probed against a build of 4 096 distinct keys, by key
// mode (an INTEGER, a non-integral DOUBLE and a VARCHAR key), at 10 % and
// 100 % hit rate; every hit matches one build entry.
func BenchmarkJoinProbe(b *testing.B) {
	const builds, probes = 4096, 64 * storage.BlockRows
	for _, hit := range []int{10, 100} {
		rnd := rand.New(rand.NewPCG(5, uint64(hit)))
		db := benchDB(b, benchRel{"b", builds, func(r int) int64 { return int64(r) }}, benchRel{"p", probes, func(int) int64 {
			if rnd.IntN(100) < hit {
				return rnd.Int64N(builds)
			}
			return builds + rnd.Int64N(builds)
		}})
		for col, mode := range []string{"int", "float", "string"} {
			b.Run(fmt.Sprintf("%s/hit=%d%%", mode, hit), func(b *testing.B) {
				e := &Engine{Workers: 1}
				build, _, err := e.buildRidJoin(db, &HashJoin{L: &TableScan{Table: "b", NCols: 5}, LCols: []int{col}})
				if err != nil {
					b.Fatal(err)
				}
				p, err := e.input(db, &TableScan{Table: "p", NCols: 5})
				if err != nil {
					b.Fatal(err)
				}
				spec := &ridProbeSpec{build: build, keys: newRidKeyCodec(build.mode, p.layout, []int{col}),
					outArity: 2, batch: e.batchSize()}
				var sink countSink
				var stats ScanStats
				st := spec.makeRid(&sink, &stats)
				defer st.release()
				b.ResetTimer()
				for range b.N {
					pushBlocks(b, probes, nil, st)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/probes, "ns/probed")
				if want := int64(b.N) * probes * int64(hit) / 100; stats.RowsMatched < want*9/10 || stats.RowsMatched > want*11/10 {
					b.Fatalf("%d of %d probes matched, want about %d %%", stats.RowsMatched, int64(b.N)*probes, hit)
				}
			})
		}
	}
}

// BenchmarkAggFold measures an aggregation sink's cost per aggregated tuple:
// 64 blocks grouped on an INTEGER into 25 or 6 000 groups, with a BIGINT SUM,
// a DOUBLE SUM and a COUNT(*).
func BenchmarkAggFold(b *testing.B) {
	const n = 64 * storage.BlockRows
	for _, groups := range []int{25, 6000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			db := benchDB(b, benchRel{"t", n, func(r int) int64 { return int64(r * 7919 % groups) }})
			agg := &HashAgg{In: &TableScan{Table: "t", NCols: 5}, GroupBy: []expr.Expr{expr.Col(0, 0)}, Aggs: []AggSpec{
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 3)}},
				{Num: SimpleAgg{Kind: spjg.AggSum, Arg: expr.Col(0, 4)}},
				{Num: SimpleAgg{Kind: spjg.AggCountStar}},
			}}
			p, err := (&Engine{Workers: 1}).input(db, agg.In)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				s := newRidAggSink(agg, p.layout)
				pushBlocks(b, n, s.begin, s)
				if len(s.g.ords) != groups {
					b.Fatalf("%d groups, want %d", len(s.g.ords), groups)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
		})
	}
}
