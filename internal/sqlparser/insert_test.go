package sqlparser

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"matview/internal/sqlvalue"
)

// writeInsert is the benchmark's write_maintain INSERT: ten lineitem rows of
// integers, decimals, strings and dates written as strings.
func writeInsert() string {
	var sb strings.Builder
	sb.WriteString("insert into lineitem values ")
	for j := 0; j < 10; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d.25, 0.0%d, 0.02, 'N', 'O', '1995-03-%02d', '1995-04-01', '1995-04-10', 'NONE', 'AIR', 'bench marker')",
			100_000_000+j, 1+13*j, 1+7*j, j+1, 1+5*j, 1000+811*j, j%10, 1+3*j)
	}
	return sb.String()
}

func BenchmarkParseInsert(b *testing.B) {
	src := writeInsert()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(cat, src); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceInsert is the parse of an INSERT before plainLiteral: every
// VALUES entry an expression parseLiteral evaluates, then coerced.
func referenceInsert(src string) (*InsertStatement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{cat: cat, toks: toks}
	if !p.eatKeyword("insert") {
		return nil, fmt.Errorf("not an insert")
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	if !p.at(tokIdent) {
		return nil, p.errf("expected table name")
	}
	name := p.cur().text
	p.pos++
	tbl := p.cat.Table(name)
	if tbl == nil {
		return nil, p.errf("unknown table %q", name)
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	st := &InsertStatement{Table: name}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []sqlvalue.Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.eatSymbol(")") {
				break
			}
			if !p.eatSymbol(",") {
				return nil, p.errf("expected ',' or ')' in VALUES row")
			}
		}
		if len(row) != len(tbl.Columns) {
			return nil, fmt.Errorf("sqlparser: VALUES row has %d values, table %s has %d columns",
				len(row), name, len(tbl.Columns))
		}
		for i := range row {
			v, err := coerceTo(row[i], &tbl.Columns[i])
			if err != nil {
				return nil, fmt.Errorf("sqlparser: column %s: %w", tbl.QualifiedColumn(i), err)
			}
			row[i] = v
		}
		st.Rows = append(st.Rows, row)
		if !p.eatSymbol(",") {
			break
		}
	}
	if !p.at(tokEOF) {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	return st, nil
}

// sameValue is bit-for-bit equality: the kind and the payload, a float's
// sign of zero included.
func sameValue(a, b sqlvalue.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqlvalue.KindInt:
		return a.Int() == b.Int()
	case sqlvalue.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqlvalue.KindString:
		return a.Str() == b.Str()
	case sqlvalue.KindDate:
		return a.DateDays() == b.DateDays()
	case sqlvalue.KindBool:
		return a.Bool() == b.Bool()
	}
	return true
}

// checkInsert holds Parse of src, an INSERT, to referenceInsert: the same
// rows, value for value, or the same refusal.
func checkInsert(t *testing.T, src string) {
	t.Helper()
	want, wantErr := referenceInsert(src)
	st, err := Parse(cat, src)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Parse(%q): error %v, want %v", src, err, wantErr)
	}
	if err != nil {
		return
	}
	got := st.Insert
	if got == nil || got.Table != want.Table || len(got.Rows) != len(want.Rows) {
		t.Fatalf("Parse(%q) = %+v, want %+v", src, got, want)
	}
	for r, row := range want.Rows {
		if len(got.Rows[r]) != len(row) {
			t.Fatalf("Parse(%q): row %d = %v, want %v", src, r, got.Rows[r], row)
		}
		for c, v := range row {
			if !sameValue(got.Rows[r][c], v) {
				t.Fatalf("Parse(%q): row %d column %d = %#v, want %#v", src, r, c, got.Rows[r][c], v)
			}
		}
	}
}

// insertTables are the tables FuzzParseInsert writes to: region (BIGINT,
// two VARCHARs) and orders, which has a DOUBLE and a DATE.
var insertTables = []string{"region", "orders"}

// FuzzParseInsert holds the VALUES literal path to the expression path —
// parseLiteral, then coerceTo, for every entry — on arbitrary VALUES lists:
// the same rows or the same refusal.
func FuzzParseInsert(f *testing.F) {
	for _, seed := range []struct {
		table  uint8
		values string
	}{
		{0, "(7, 'ATLANTIS', 'sunken'), (8, 'LEMURIA', NULL)"},
		{0, "(-7, 'it''s', ''), (- 8, '''', 'x')"},
		{0, "(9223372036854775807, 'max', 'x'), (-9223372036854775807, 'min', 'y')"},
		{0, "(9223372036854775808, 'overflow', 'x')"},
		{0, "(-9223372036854775808, 'overflow', 'x')"},
		{0, "(2+3, 'X', 'y'), (-(4), 'Y', 'z'), (- -5, 'Z', 'w')"},
		{0, "(1.5, 'float', 'x')"},
		{0, "(TRUE, 'bool', 'x')"},
		{0, "(NULL, NULL, NULL)"},
		{0, "(1, 'short')"},
		{0, "(1, 'long', 'x', 'y')"},
		{0, "(1, 'x', 'y') trailing"},
		{0, "(1, 'x', 'y'),"},
		{0, "(1, 'x' 'y')"},
		{0, "(1, r_name, 'y')"},
		{1, "(1, 2, 'O', 100.5, DATE '1995-01-01', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', -0.0, '1995-3-7', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 7, '1995-02-30', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 7, '2000-02-29', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 7, '1900-02-29', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 7, DATE '0000-01-01', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 7, DATE '1995-13-01', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 1.2.3, DATE '1995-01-01', '1-URGENT', 'Clerk#1', 0, 'c')"},
		{1, "(1, 2, 'O', 100, 19950101, '1-URGENT', 'Clerk#1', TRUE, 'c')"},
		{1, "(1, 2, 'O', - 0.0, DATE '1995-01-01' + 1, '1-URGENT', 'Clerk#1', FALSE, 'c')"},
	} {
		f.Add(seed.table, seed.values)
	}
	f.Fuzz(func(t *testing.T, table uint8, values string) {
		checkInsert(t, "insert into "+insertTables[int(table)%len(insertTables)]+" values "+values)
	})
}

// FuzzDateValue holds dateValue to time.Parse("2006-01-02") on arbitrary
// strings: it accepts what time.Parse accepts, as the same day.
func FuzzDateValue(f *testing.F) {
	for _, s := range []string{"1995-03-07", "1995-3-7", "1995-02-30", "2000-02-29", "1900-02-29",
		"0000-01-01", "9999-12-31", "1995-00-10", "1995-01-00", "+995-01-01", "1995-01-01 ", "1995/01/01", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := dateValue(s)
		d, err := time.Parse("2006-01-02", s)
		if ok != (err == nil) {
			t.Fatalf("dateValue(%q) accepted %t, time.Parse error %v", s, ok, err)
		}
		if want := sqlvalue.NewDateYMD(d.Year(), d.Month(), d.Day()); ok && !sameValue(got, want) {
			t.Fatalf("dateValue(%q) = %v, want %v", s, got, want)
		}
	})
}
