package sqlparser

import (
	"fmt"
	"strings"

	"matview/internal/catalog"
	"matview/internal/expr"
	"matview/internal/spjg"
	"matview/internal/sqlvalue"
)

// Statement is a parsed SQL statement: a query, a view definition, an index
// creation, or a DML statement — exactly one of the optional fields is set
// (Query is set for SELECT and CREATE VIEW).
type Statement struct {
	// ViewName is non-empty for CREATE VIEW statements.
	ViewName string
	Query    *spjg.Query

	// DropViewName is non-empty for DROP VIEW statements.
	DropViewName string

	Insert      *InsertStatement
	Delete      *DeleteStatement
	CreateIndex *CreateIndexStatement
}

func tableRefFor(t *catalog.Table) spjg.TableRef { return spjg.TableRef{Table: t} }

// Parse parses a single SELECT or CREATE VIEW statement against the catalog
// and returns the normalized form. The supported grammar is the paper's
// indexable-view class (§2): single-block SELECT over base tables, inner
// joins in the WHERE clause, an optional GROUP BY, and SUM / COUNT_BIG(*) /
// COUNT(*) / AVG aggregates.
func Parse(cat *catalog.Catalog, src string) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{cat: cat, toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	if st.Query != nil {
		if err := st.Query.Validate(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ParseQuery parses a SELECT statement and returns the normalized query.
func ParseQuery(cat *catalog.Catalog, src string) (*spjg.Query, error) {
	st, err := Parse(cat, src)
	if err != nil {
		return nil, err
	}
	if st.ViewName != "" {
		return nil, fmt.Errorf("sqlparser: expected a SELECT, got CREATE VIEW")
	}
	return st.Query, nil
}

type parser struct {
	cat  *catalog.Catalog
	toks []token
	pos  int

	tables []spjg.TableRef
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && p.cur().text == kw
}

func (p *parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errf("expected %s, got %q", strings.ToUpper(kw), p.cur().text)
	}
	return nil
}

func (p *parser) eatSymbol(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.eatSymbol(s) {
		return p.errf("expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (*Statement, error) {
	if p.eatKeyword("insert") {
		ins, err := p.parseInsert()
		if err != nil {
			return nil, err
		}
		return &Statement{Insert: ins}, nil
	}
	if p.eatKeyword("delete") {
		del, err := p.parseDelete()
		if err != nil {
			return nil, err
		}
		return &Statement{Delete: del}, nil
	}
	if p.eatKeyword("drop") {
		if err := p.expectKeyword("view"); err != nil {
			return nil, err
		}
		if !p.at(tokIdent) {
			return nil, p.errf("expected view name")
		}
		name := p.cur().text
		p.pos++
		return &Statement{DropViewName: name}, nil
	}
	if p.eatKeyword("create") {
		if p.eatKeyword("index") {
			ci, err := p.parseCreateIndex(false)
			if err != nil {
				return nil, err
			}
			return &Statement{CreateIndex: ci}, nil
		}
		if p.eatKeyword("unique") {
			if err := p.expectKeyword("index"); err != nil {
				return nil, err
			}
			ci, err := p.parseCreateIndex(true)
			if err != nil {
				return nil, err
			}
			return &Statement{CreateIndex: ci}, nil
		}
		if err := p.expectKeyword("view"); err != nil {
			return nil, err
		}
		if !p.at(tokIdent) {
			return nil, p.errf("expected view name")
		}
		name := p.cur().text
		p.pos++
		if p.eatKeyword("with") {
			if err := p.expectKeyword("schemabinding"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("as"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Statement{ViewName: name, Query: q}, nil
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &Statement{Query: q}, nil
}

// selItem is a pre-resolution output item.
type selItem struct {
	name string
	e    exprOrAgg
}

type exprOrAgg struct {
	e   expr.Expr
	agg *spjg.Aggregate
}

func (p *parser) parseSelect() (*spjg.Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	// The FROM clause determines name resolution, so capture the output-list
	// tokens first, parse FROM, then rewind and parse outputs.
	selStart := p.pos
	depth := 0
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return nil, p.errf("missing FROM clause")
		}
		if t.kind == tokSymbol && t.text == "(" {
			depth++
		}
		if t.kind == tokSymbol && t.text == ")" {
			depth--
		}
		if depth == 0 && t.kind == tokIdent && t.text == "from" {
			break
		}
		p.pos++
	}
	selEnd := p.pos
	p.pos++ // consume FROM
	if err := p.parseFromList(); err != nil {
		return nil, err
	}
	fromEnd := p.pos

	// Parse the output list.
	p.pos = selStart
	var items []selItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.pos >= selEnd {
			break
		}
		if !p.eatSymbol(",") {
			return nil, p.errf("expected ',' in select list")
		}
	}
	if p.pos != selEnd {
		return nil, p.errf("malformed select list")
	}
	p.pos = fromEnd

	q := &spjg.Query{Tables: p.tables}
	for _, it := range items {
		q.Outputs = append(q.Outputs, spjg.OutputColumn{Name: it.name, Expr: it.e.e, Agg: it.e.agg})
	}

	if p.eatKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if p.eatKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		q.HasGroupBy = true
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, g)
			if !p.eatSymbol(",") {
				break
			}
		}
	}
	return q, nil
}

func (p *parser) parseFromList() error {
	for {
		if !p.at(tokIdent) {
			return p.errf("expected table name")
		}
		name := p.cur().text
		p.pos++
		// Strip schema prefixes like dbo.lineitem.
		if p.eatSymbol(".") {
			if !p.at(tokIdent) {
				return p.errf("expected table name after schema")
			}
			name = p.cur().text
			p.pos++
		}
		tbl := p.cat.Table(name)
		if tbl == nil {
			return p.errf("unknown table %q", name)
		}
		ref := spjg.TableRef{Table: tbl}
		// Optional alias (a bare identifier that is not a clause keyword).
		if p.at(tokIdent) && !isClauseKeyword(p.cur().text) {
			ref.Alias = p.cur().text
			p.pos++
		}
		p.tables = append(p.tables, ref)
		if !p.eatSymbol(",") {
			return nil
		}
	}
}

func isClauseKeyword(s string) bool {
	switch s {
	case "where", "group", "order", "having", "on", "inner", "join", "as":
		return true
	}
	return false
}

func (p *parser) parseSelectItem() (selItem, error) {
	var item selItem
	// Aggregates.
	if p.at(tokIdent) {
		switch p.cur().text {
		case "count_big", "count":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return item, err
			}
			if err := p.expectSymbol("*"); err != nil {
				return item, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return item, err
			}
			item.e.agg = &spjg.Aggregate{Kind: spjg.AggCountStar}
			item.name = p.parseAlias("cnt")
			return item, nil
		case "sum", "avg":
			kind := spjg.AggSum
			if p.cur().text == "avg" {
				kind = spjg.AggAvg
			}
			save := p.pos
			p.pos++
			if p.eatSymbol("(") {
				arg, err := p.parseExpr()
				if err != nil {
					return item, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return item, err
				}
				item.e.agg = &spjg.Aggregate{Kind: kind, Arg: arg}
				item.name = p.parseAlias(strings.ToLower(kind.String()))
				return item, nil
			}
			p.pos = save // "sum"/"avg" used as a column name
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return item, err
	}
	item.e.e = e
	def := ""
	if col, ok := e.(expr.Column); ok {
		def = p.tables[col.Ref.Tab].Table.Columns[col.Ref.Col].Name
	}
	item.name = p.parseAlias(def)
	return item, nil
}

func (p *parser) parseAlias(def string) string {
	if p.eatKeyword("as") {
		if p.at(tokIdent) {
			name := p.cur().text
			p.pos++
			return name
		}
	} else if p.at(tokIdent) && !isClauseKeyword(p.cur().text) && p.cur().text != "from" {
		// Implicit alias only directly after an expression, before , or FROM.
		name := p.cur().text
		p.pos++
		return name
	}
	return def
}

// Expression grammar, loosest to tightest: OR, AND, NOT, comparison /
// LIKE / IS NULL / BETWEEN, additive, multiplicative, unary.
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.NewOr(l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.NewAnd(l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.eatKeyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tokCompare):
		op, err := cmpOp(p.cur().text)
		if err != nil {
			return nil, err
		}
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(op, l, r), nil
	case p.atKeyword("like"):
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.Like{E: l, Pattern: r}, nil
	case p.atKeyword("not"):
		// NOT LIKE
		save := p.pos
		p.pos++
		if p.eatKeyword("like") {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.Not{E: expr.Like{E: l, Pattern: r}}, nil
		}
		p.pos = save
		return l, nil
	case p.atKeyword("is"):
		p.pos++
		neg := p.eatKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return expr.IsNull{E: l, Negate: neg}, nil
	case p.atKeyword("between"):
		p.pos++
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.NewAnd(expr.NewCmp(expr.GE, l, lo), expr.NewCmp(expr.LE, l, hi)), nil
	}
	return l, nil
}

func cmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	}
	return expr.EQ, fmt.Errorf("sqlparser: unknown comparison %q", s)
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Add, l, r)
		case p.eatSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Sub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Mul, l, r)
		case p.eatSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Div, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.eatSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if c, ok := expr.ConstOf(e); ok {
			n, err := sqlvalue.Neg(c)
			if err == nil {
				return expr.C(n), nil
			}
		}
		return expr.Neg{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		v, ok := numberValue(t.text)
		if !ok {
			return nil, p.errf("bad number %q", t.text)
		}
		return expr.C(v), nil
	case tokString:
		p.pos++
		return expr.CStr(t.text), nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch t.text {
		case "null":
			p.pos++
			return expr.C(sqlvalue.Null), nil
		case "true":
			p.pos++
			return expr.C(sqlvalue.NewBool(true)), nil
		case "false":
			p.pos++
			return expr.C(sqlvalue.NewBool(false)), nil
		case "date":
			// DATE 'yyyy-mm-dd'
			if p.toks[p.pos+1].kind == tokString {
				p.pos++
				s := p.cur().text
				p.pos++
				d, ok := dateValue(s)
				if !ok {
					return nil, p.errf("bad date literal %q", s)
				}
				return expr.C(d), nil
			}
		}
		return p.parseIdentExpr()
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseIdentExpr() (expr.Expr, error) {
	name := p.cur().text
	p.pos++
	// Scalar function call.
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.pos++
		var args []expr.Expr
		if !p.eatSymbol(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.eatSymbol(")") {
					break
				}
				if !p.eatSymbol(",") {
					return nil, p.errf("expected ',' or ')' in argument list")
				}
			}
		}
		return expr.Func{Name: strings.ToUpper(name), Args: args}, nil
	}
	// Qualified column: alias.col (or schema.table.col is not supported in
	// expressions; aliases only).
	if p.eatSymbol(".") {
		if !p.at(tokIdent) {
			return nil, p.errf("expected column name after %q.", name)
		}
		col := p.cur().text
		p.pos++
		for ti, ref := range p.tables {
			if ref.Name() == name {
				ord := ref.Table.ColumnIndex(col)
				if ord < 0 {
					return nil, p.errf("unknown column %s.%s", name, col)
				}
				return expr.Col(ti, ord), nil
			}
		}
		return nil, p.errf("unknown table or alias %q", name)
	}
	// Bare column: must resolve unambiguously across the FROM list.
	found := -1
	ord := -1
	for ti, ref := range p.tables {
		if o := ref.Table.ColumnIndex(name); o >= 0 {
			if found >= 0 {
				return nil, p.errf("ambiguous column %q", name)
			}
			found, ord = ti, o
		}
	}
	if found < 0 {
		return nil, p.errf("unknown column %q", name)
	}
	return expr.Col(found, ord), nil
}
