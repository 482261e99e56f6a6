package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/sqlvalue"
)

// InsertStatement is a parsed INSERT INTO table VALUES (...), (...). Every
// value is NULL or of its column's catalog type: literals are coerced as
// they are parsed (see coerceTo), so storage, the views' delta queries and a
// WAL replay of the same text all see the same kinds.
type InsertStatement struct {
	Table string
	Rows  [][]sqlvalue.Value
}

// DeleteStatement is a parsed DELETE FROM table [WHERE pred]; Where uses
// Tab == 0 for the target table (nil means delete everything).
type DeleteStatement struct {
	Table string
	Where expr.Expr
}

// CreateIndexStatement is a parsed CREATE [UNIQUE] INDEX name ON target
// (col, ...). The target may be a base table or a materialized view; column
// names are resolved by the caller (views are not in the catalog).
type CreateIndexStatement struct {
	Name    string
	Target  string
	Columns []string
	Unique  bool
}

// parseInsert parses after the INSERT keyword. An entry that is a plain
// literal is read straight into its row (plainLiteral); any other goes
// through parseLiteral. The rows are cut from one slab.
func (p *parser) parseInsert() (*InsertStatement, error) {
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
	// A row takes at least one token per value, a comma between two and its
	// parentheses, so the tokens left bound the rows the slab must hold.
	ncols := len(tbl.Columns)
	rows := (len(p.toks)-p.pos)/(2*ncols+1) + 1
	st := &InsertStatement{Table: name, Rows: make([][]sqlvalue.Value, 0, rows)}
	slab := make([]sqlvalue.Value, rows*ncols)
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if len(slab) < ncols {
			slab = make([]sqlvalue.Value, ncols)
		}
		row := slab[:ncols:ncols]
		n := 0
		for {
			v, ok := p.plainLiteral()
			if !ok {
				var err error
				if v, err = p.parseLiteral(); err != nil {
					return nil, err
				}
			}
			if n < ncols {
				row[n] = v
			}
			n++
			if p.eatSymbol(")") {
				break
			}
			if !p.eatSymbol(",") {
				return nil, p.errf("expected ',' or ')' in VALUES row")
			}
		}
		if n != ncols {
			return nil, fmt.Errorf("sqlparser: VALUES row has %d values, table %s has %d columns",
				n, name, ncols)
		}
		for i := range row {
			v, err := coerceTo(row[i], &tbl.Columns[i])
			if err != nil {
				return nil, fmt.Errorf("sqlparser: column %s: %w", tbl.QualifiedColumn(i), err)
			}
			row[i] = v
		}
		st.Rows = append(st.Rows, row)
		slab = slab[ncols:]
		if !p.eatSymbol(",") {
			break
		}
	}
	return st, nil
}

// plainLiteral reads a VALUES entry that is a plain literal — a number,
// signed or not, a string, NULL, TRUE, FALSE or DATE 'yyyy-mm-dd' — and is
// followed by ',' or ')': the value parseLiteral would return, without an
// expression. For any other entry, or one parseLiteral would refuse, it
// reads nothing and reports false.
func (p *parser) plainLiteral() (sqlvalue.Value, bool) {
	i := p.pos
	t := p.toks[i]
	neg := t.kind == tokSymbol && t.text == "-"
	if neg {
		i++
		t = p.toks[i]
	}
	var v sqlvalue.Value
	ok := false
	switch {
	case t.kind == tokNumber:
		v, ok = numberValue(t.text)
	case neg: // a sign before anything but a number: an expression
	case t.kind == tokString:
		v, ok = sqlvalue.NewString(t.text), true
	case t.kind == tokIdent:
		switch t.text {
		case "null":
			ok = true
		case "true", "false":
			v, ok = sqlvalue.NewBool(t.text == "true"), true
		case "date":
			if s := p.toks[i+1]; s.kind == tokString {
				i++
				v, ok = dateValue(s.text)
			}
		}
	}
	if !ok {
		return sqlvalue.Null, false
	}
	if end := p.toks[i+1]; end.kind != tokSymbol || end.text != "," && end.text != ")" {
		return sqlvalue.Null, false
	}
	if neg {
		v, _ = sqlvalue.Neg(v) // a number: never refused
	}
	p.pos = i + 1
	return v, true
}

// numberValue reads a number token: a DOUBLE when it has a '.', else a
// BIGINT; false when it is neither.
func numberValue(text string) (sqlvalue.Value, bool) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		return sqlvalue.NewFloat(f), err == nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	return sqlvalue.NewInt(i), err == nil
}

// coerceTo converts an INSERT literal to the column's catalog type: an
// integer widens to DOUBLE and a 'yyyy-mm-dd' string becomes a DATE; NULL
// and a value already of the type pass through; anything else is an error.
func coerceTo(v sqlvalue.Value, col *catalog.Column) (sqlvalue.Value, error) {
	switch k := v.Kind(); {
	case k == sqlvalue.KindNull || k == col.Type:
		return v, nil
	case k == sqlvalue.KindInt && col.Type == sqlvalue.KindFloat:
		return sqlvalue.NewFloat(float64(v.Int())), nil
	case k == sqlvalue.KindString && col.Type == sqlvalue.KindDate:
		d, ok := dateValue(v.Str())
		if !ok {
			return sqlvalue.Null, fmt.Errorf("bad date %s (want 'yyyy-mm-dd')", v)
		}
		return d, nil
	default:
		return sqlvalue.Null, fmt.Errorf("is %s, got %s %s", col.Type, k, v)
	}
}

// dateValue reads a date written yyyy-mm-dd and accepts exactly what
// time.Parse("2006-01-02", s) accepts: four digits, two and two, a month
// of the year and a day of that month.
func dateValue(s string) (sqlvalue.Value, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return sqlvalue.Null, false
	}
	year, month, day := digits(s[:4]), digits(s[5:7]), digits(s[8:])
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) {
		return sqlvalue.Null, false
	}
	return sqlvalue.NewDateYMD(year, time.Month(month), day), true
}

// digits reads s, all decimal digits, as a number; -1 when it is not.
func digits(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return -1
		}
		n = 10*n + int(s[i]-'0')
	}
	return n
}

// daysIn is the number of days of a month of the proleptic Gregorian
// calendar.
func daysIn(month, year int) int {
	if month == 2 {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + (month+month/8)%2
}

// parseLiteral parses a constant expression (no column references) and
// evaluates it.
func (p *parser) parseLiteral() (sqlvalue.Value, error) {
	e, err := p.parseExpr()
	if err != nil {
		return sqlvalue.Null, err
	}
	if len(expr.Columns(e)) != 0 {
		return sqlvalue.Null, p.errf("VALUES entries must be constants")
	}
	v, err := expr.Eval(e, func(expr.ColRef) sqlvalue.Value { return sqlvalue.Null })
	if err != nil {
		return sqlvalue.Null, err
	}
	return v, nil
}

// parseDelete parses after the DELETE keyword.
func (p *parser) parseDelete() (*DeleteStatement, error) {
	if err := p.expectKeyword("from"); err != nil {
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
	st := &DeleteStatement{Table: name}
	p.tables = append(p.tables, tableRefFor(tbl))
	if p.eatKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

// parseCreateIndex parses after CREATE [UNIQUE] INDEX.
func (p *parser) parseCreateIndex(unique bool) (*CreateIndexStatement, error) {
	if !p.at(tokIdent) {
		return nil, p.errf("expected index name")
	}
	st := &CreateIndexStatement{Name: p.cur().text, Unique: unique}
	p.pos++
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	if !p.at(tokIdent) {
		return nil, p.errf("expected index target")
	}
	st.Target = p.cur().text
	p.pos++
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		if !p.at(tokIdent) {
			return nil, p.errf("expected column name")
		}
		st.Columns = append(st.Columns, p.cur().text)
		p.pos++
		if p.eatSymbol(")") {
			break
		}
		if !p.eatSymbol(",") {
			return nil, p.errf("expected ',' or ')' in column list")
		}
	}
	return st, nil
}
