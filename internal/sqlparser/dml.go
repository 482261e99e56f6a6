package sqlparser

import (
	"fmt"
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

// parseInsert parses after the INSERT keyword.
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
	return st, nil
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

// dateValue parses yyyy-mm-dd.
func dateValue(s string) (sqlvalue.Value, bool) {
	d, err := time.Parse("2006-01-02", s)
	if err != nil {
		return sqlvalue.Null, false
	}
	return sqlvalue.NewDateYMD(d.Year(), d.Month(), d.Day()), true
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
