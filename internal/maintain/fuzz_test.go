package maintain_test

import (
	"fmt"
	"slices"
	"testing"

	"matview/internal/catalog"
	"matview/internal/exec"
	"matview/internal/expr"
	"matview/internal/maintain"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
	"matview/internal/storage"
	"matview/internal/tpch"
)

// fuzzBytes hands out the fuzzer's input a byte at a time, zeros once it
// runs out, so every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzMaintainDelta holds the delta path to a recompute: a few orders over
// four customers, 1–3 views over orders (1–3 instances joined on o_custkey,
// an optional customer join, an optional range conjunct, SPJ or a
// COUNT_BIG/SUM rollup), optionally a rollup whose price floor many a
// statement's Δ fails entirely (the irrelevant-update test skips it),
// optionally two views joining orders to customer on one key (one shared
// Δ⋈customer node), and optionally a rollup with secondary indexes over its
// SUM and its COUNT_BIG, the columns an update writes in place; then 1–8
// statements on orders: an INSERT, a DELETE, or a customer's orders deleted
// and one inserted again, so a group vanishes and reappears. After every
// statement each view must be Fresh and hold exactly what its definition
// evaluates to, each of its indexes must agree with a scan, and no statement
// may fail. Customer keys run 1–5, so some orders join no customer.
//
// A view over n instances of orders has a delta term per nonempty set of
// them (Δ there, orders as written elsewhere), those of an even count
// subtracted under an INSERT. The seed triple_self_join_insert_then_delete
// holds a rollup and an SPJ view over three instances, inserts three orders,
// two of one customer, and deletes every order of that customer, so every
// run applies the two- and three-instance terms under both signs.
func FuzzMaintainDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		db := storage.NewDatabase(tpch.NewCatalog(0.001))
		cat := db.Catalog
		for c := int64(1); c <= 4; c++ {
			if err := db.Table("customer").Insert(storage.Row{
				sqlvalue.NewInt(c), sqlvalue.NewString(fmt.Sprintf("Customer#%d", c)),
				sqlvalue.NewString("addr"), sqlvalue.NewInt(c % 2), sqlvalue.NewString("phone"),
				sqlvalue.NewFloat(0), sqlvalue.NewString("BUILDING"), sqlvalue.NewString("fuzz"),
			}); err != nil {
				t.Fatal(err)
			}
		}
		key := int64(0)
		orderOf := func(cust int64) storage.Row {
			key++
			return newOrderRow(db, key, cust, float64(in.next()%8)*1000)
		}
		order := func() storage.Row { return orderOf(1 + int64(in.next()%5)) }
		for range in.next() % 12 {
			if err := db.Table("orders").Insert(order()); err != nil {
				t.Fatal(err)
			}
		}
		db.Commit()

		m := maintain.New(db)
		var views []*maintain.View
		for i := range 1 + in.next()%3 {
			def := fuzzView(cat, &in)
			v, err := register(m, fmt.Sprintf("fz%d", i), def)
			if err != nil {
				t.Fatalf("view %s: %v", def, err)
			}
			views = append(views, v)
		}
		for _, x := range extraViews(cat, &in) {
			v, err := register(m, fmt.Sprintf("fz%d", len(views)), x.def)
			if err != nil {
				t.Fatalf("view %s: %v", x.def, err)
			}
			for _, cols := range x.indexes {
				if _, err := db.View(v.Name).BuildIndex(cols, false); err != nil {
					t.Fatal(err)
				}
			}
			db.Commit()
			views = append(views, v)
		}
		keys := map[string]map[string]storage.Row{} // per view index: every key its rows ever had
		var churn int64                             // the customer whose orders go and come back
		for s := range 1 + in.next()%8 {
			var err error
			var what string
			switch op := in.next() % 3; {
			case churn > 0:
				what = fmt.Sprintf("insert of an order of customer %d", churn)
				err = m.Insert("orders", []storage.Row{orderOf(churn)})
				churn = 0
			case op == 0:
				batch := make([]storage.Row, 1+in.next()%4)
				for i := range batch {
					batch[i] = order()
				}
				what = fmt.Sprintf("insert of %d order(s)", len(batch))
				err = m.Insert("orders", batch)
			case op == 1:
				churn = int64(1 + in.next()%5)
				what = fmt.Sprintf("delete of every order of customer %d", churn)
				_, err = m.DeleteWhere("orders", expr.Eq(expr.Col(0, tpch.OCustkey), expr.CInt(churn)))
			default:
				var where expr.Expr
				if in.next()%2 == 0 {
					where = expr.Eq(expr.Col(0, tpch.OCustkey), expr.CInt(int64(1+in.next()%5)))
				} else {
					lo := int64(in.next() % 16)
					where = expr.NewAnd(
						expr.NewCmp(expr.GE, expr.Col(0, tpch.OOrderkey), expr.CInt(lo)),
						expr.NewCmp(expr.LE, expr.Col(0, tpch.OOrderkey), expr.CInt(lo+int64(in.next()%6))))
				}
				what = "delete where " + expr.Render(where, expr.PositionalResolver)
				_, err = m.DeleteWhere("orders", where)
			}
			if err != nil {
				t.Fatalf("statement %d (%s): %v", s, what, err)
			}
			for _, v := range views {
				if st, _ := m.ViewState(v.Name); st != maintain.Fresh {
					t.Fatalf("after statement %d (%s), view %s is %s", s, what, v.Name, st)
				}
				want, err := exec.RunQuery(db, v.Def)
				if err != nil {
					t.Fatal(err)
				}
				if got := db.View(v.Name).Rows(); !exec.SameRows(got, want) {
					t.Fatalf("after statement %d (%s), view %s holds %d rows, its definition %d:\n%s",
						s, what, v.Name, len(got), len(want), v.Def)
				}
				if msg := indexesAgree(db.View(v.Name), keys); msg != "" {
					t.Fatalf("after statement %d (%s), view %s: %s", s, what, v.Name, msg)
				}
			}
		}
	})
}

// indexesAgree checks every declared index of view mv against a scan:
// probing any key a row of the view ever had (seen, which it extends, holds
// those keys per view and index) finds exactly the live rows holding it now,
// so an entry left under a row's old key, a dead row's or a missing one
// shows.
func indexesAgree(mv *storage.MaterializedView, seen map[string]map[string]storage.Row) string {
	st := mv.Store()
	for _, def := range mv.IndexDefs() {
		id := fmt.Sprint(mv.Name, def.Cols)
		if seen[id] == nil {
			seen[id] = map[string]storage.Row{}
		}
		live := map[string][]int{}
		for i := range st.Len() {
			key := make(storage.Row, len(def.Cols))
			for k, c := range def.Cols {
				key[k] = st.Value(i, c)
			}
			s := string(key.AppendKey(nil, nil))
			seen[id][s] = key
			if !st.IsDead(i) {
				live[s] = append(live[s], i)
			}
		}
		idx := mv.Locator(def.Cols)
		for s, key := range seen[id] {
			got := slices.Clone(idx.Probe(key))
			if slices.Sort(got); !slices.Equal(got, live[s]) {
				return fmt.Sprintf("index on %v finds %v under %v, a scan %v", def.Cols, got, key, live[s])
			}
		}
	}
	return ""
}

// fuzzView decodes one view over orders: n instances, each after the first
// joined to the first on o_custkey; a customer joined to the first instance
// at some position in FROM; a range conjunct on one instance; then either a
// rollup grouped by one instance's customer key (or the customer's nation)
// summing another's price, or an SPJ view of every instance's customer key
// and, optionally, price — duplicates included.
func fuzzView(cat *catalog.Catalog, in *fuzzBytes) *spjg.Query {
	n := 1 + in.next()%3
	flags := in.next()
	withCust := flags&1 != 0
	width, custPos := n, -1 // the customer's FROM position; orders fill the others
	if withCust {
		width, custPos = n+1, in.next()%(n+1)
	}
	var q spjg.Query
	var inst []int // FROM position of each orders instance
	for pos := range width {
		if pos == custPos {
			q.Tables = append(q.Tables, spjg.TableRef{Table: cat.Table("customer")})
			continue
		}
		inst = append(inst, pos)
		q.Tables = append(q.Tables, spjg.TableRef{Table: cat.Table("orders"), Alias: fmt.Sprintf("o%d", len(inst)-1)})
	}
	var conj []expr.Expr
	for _, p := range inst[1:] {
		conj = append(conj, expr.Eq(expr.Col(inst[0], tpch.OCustkey), expr.Col(p, tpch.OCustkey)))
	}
	if withCust {
		conj = append(conj, expr.Eq(expr.Col(custPos, tpch.CCustkey), expr.Col(inst[0], tpch.OCustkey)))
	}
	if flags&2 != 0 {
		p := inst[in.next()%n]
		if in.next()%2 == 0 {
			conj = append(conj, expr.NewCmp(expr.GE, expr.Col(p, tpch.OTotalprice), expr.CInt(int64(in.next()%8)*1000)))
		} else {
			conj = append(conj, expr.NewCmp(expr.LE, expr.Col(p, tpch.OOrderkey), expr.CInt(int64(in.next()%24))))
		}
	}
	if len(conj) > 0 {
		q.Where = expr.NewAnd(conj...)
	}
	if flags&4 != 0 {
		group := expr.Col(inst[in.next()%n], tpch.OCustkey)
		if withCust && in.next()%2 == 0 {
			group = expr.Col(custPos, tpch.CNationkey)
		}
		q.GroupBy = []expr.Expr{group}
		q.Outputs = []spjg.OutputColumn{
			{Name: "g", Expr: group},
			{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
			{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(inst[in.next()%n], tpch.OTotalprice)}},
		}
		return &q
	}
	for k, p := range inst {
		q.Outputs = append(q.Outputs, spjg.OutputColumn{Name: fmt.Sprintf("c%d", k), Expr: expr.Col(p, tpch.OCustkey)})
		if flags&8 != 0 {
			q.Outputs = append(q.Outputs, spjg.OutputColumn{Name: fmt.Sprintf("p%d", k), Expr: expr.Col(p, tpch.OTotalprice)})
		}
	}
	return &q
}

// extraView is a view beside fuzzView's, with the secondary indexes to
// build on it.
type extraView struct {
	def     *spjg.Query
	indexes [][]int
}

// extraViews decodes the views beside fuzzView's: a rollup of orders priced
// at least a floor of 5000–8000 (prices run 0–7000, so many a statement's Δ
// has no row to pass), two views joining orders to customer on
// o_custkey = c_custkey — a rollup by nation and an SPJ view — whose delta
// terms share one Δ⋈customer node, and a rollup by customer indexed on its
// SUM and on its COUNT_BIG.
func extraViews(cat *catalog.Catalog, in *fuzzBytes) []extraView {
	flags := in.next()
	var out []extraView
	rollup := func(where expr.Expr) *spjg.Query {
		return &spjg.Query{
			Tables:  []spjg.TableRef{{Table: cat.Table("orders")}},
			Where:   where,
			GroupBy: []expr.Expr{expr.Col(0, tpch.OCustkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "c", Expr: expr.Col(0, tpch.OCustkey)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
			},
		}
	}
	if flags&1 != 0 {
		out = append(out, extraView{def: rollup(expr.NewCmp(expr.GE, expr.Col(0, tpch.OTotalprice), expr.CInt(int64(5+in.next()%4)*1000)))})
	}
	if flags&2 != 0 {
		join := []spjg.TableRef{{Table: cat.Table("orders")}, {Table: cat.Table("customer")}}
		on := expr.Eq(expr.Col(0, tpch.OCustkey), expr.Col(1, tpch.CCustkey))
		out = append(out, extraView{def: &spjg.Query{
			Tables:  join,
			Where:   on,
			GroupBy: []expr.Expr{expr.Col(1, tpch.CNationkey)},
			Outputs: []spjg.OutputColumn{
				{Name: "n", Expr: expr.Col(1, tpch.CNationkey)},
				{Name: "cnt", Agg: &spjg.Aggregate{Kind: spjg.AggCountStar}},
				{Name: "total", Agg: &spjg.Aggregate{Kind: spjg.AggSum, Arg: expr.Col(0, tpch.OTotalprice)}},
			},
		}}, extraView{def: &spjg.Query{
			Tables: join,
			Where:  on,
			Outputs: []spjg.OutputColumn{
				{Name: "k", Expr: expr.Col(0, tpch.OOrderkey)},
				{Name: "name", Expr: expr.Col(1, tpch.CName)},
			},
		}})
	}
	if flags&4 != 0 {
		out = append(out, extraView{def: rollup(nil), indexes: [][]int{{2}, {1}}})
	}
	return out
}
