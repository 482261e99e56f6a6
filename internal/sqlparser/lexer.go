// Package sqlparser parses the SQL subset the system supports — single-block
// SELECT statements with selections, inner joins expressed in the WHERE
// clause, an optional GROUP BY, and CREATE VIEW wrappers (§2's indexable-view
// class) — into normalized spjg queries. It exists so that examples, the
// shell, and tests can express views and queries as SQL text the way the
// paper does.
package sqlparser

import (
	"fmt"
	"strings"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // ( ) , * + - / .
	tokCompare // = <> < <= > >=
)

type token struct {
	kind tokKind
	text string // identifiers lowercased; keywords matched case-insensitively
	pos  int
}

// lex tokenizes src: identifiers are lowercased, string literals unquoted
// and unescaped, and "!=" spelled "<>". The statements the system writes
// spend about four bytes a token, so the slice is made once with room for a
// token every three bytes; a denser statement grows it.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/3+1)
	for pos := 0; ; {
		kind, start, end, err := scanToken(src, pos)
		if err != nil {
			return nil, err
		}
		text := src[start:end]
		switch kind {
		case tokIdent:
			text = strings.ToLower(text)
		case tokString:
			text = strings.ReplaceAll(text[1:len(text)-1], "''", "'")
		case tokCompare:
			if text == "!=" {
				text = "<>"
			}
		}
		toks = append(toks, token{kind: kind, text: text, pos: start})
		if kind == tokEOF {
			return toks, nil
		}
		pos = end
	}
}

// scanToken skips whitespace and "--" line comments from pos and classifies
// the token that follows as src[start:end]; at the end of input that is an
// empty tokEOF. A string token spans both quotes, with embedded quotes still
// doubled. It is the one definition of the lexical grammar: lex builds the
// parser's tokens from it and Fingerprint the plan-cache key.
func scanToken(src string, pos int) (kind tokKind, start, end int, err error) {
	for pos < len(src) {
		c := src[pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			pos++
		} else if c == '-' && pos+1 < len(src) && src[pos+1] == '-' {
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		} else {
			break
		}
	}
	start = pos
	if pos >= len(src) {
		return tokEOF, start, start, nil
	}
	c := src[pos]
	pos++
	switch {
	case isIdentStart(c):
		for pos < len(src) && isIdentChar(src[pos]) {
			pos++
		}
		return tokIdent, start, pos, nil
	case c >= '0' && c <= '9':
		for pos < len(src) && (src[pos] >= '0' && src[pos] <= '9' || src[pos] == '.') {
			pos++
		}
		return tokNumber, start, pos, nil
	case c == '\'':
		for {
			if pos >= len(src) {
				return 0, 0, 0, fmt.Errorf("sqlparser: unterminated string at %d", start)
			}
			if src[pos] != '\'' {
				pos++
			} else if pos+1 < len(src) && src[pos+1] == '\'' {
				pos += 2
			} else {
				return tokString, start, pos + 1, nil
			}
		}
	case c == '<' || c == '>' || c == '=' || c == '!':
		if pos < len(src) && (src[pos] == '=' || (c == '<' && src[pos] == '>')) {
			pos++
		} else if c == '!' {
			return 0, 0, 0, fmt.Errorf("sqlparser: unexpected '!' at %d", start)
		}
		return tokCompare, start, pos, nil
	case strings.IndexByte("(),*+-/.", c) >= 0:
		return tokSymbol, start, pos, nil
	default:
		return 0, 0, 0, fmt.Errorf("sqlparser: unexpected character %q at %d", c, start)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
