package sqlparser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"matview/internal/tpch"
	"matview/internal/workload"
)

func fp(t *testing.T, sql string) string {
	t.Helper()
	key, err := Fingerprint(sql)
	if err != nil {
		t.Fatalf("Fingerprint(%q): %v", sql, err)
	}
	return key
}

func TestFingerprintNormalizesWhitespaceAndCase(t *testing.T) {
	a := fp(t, "select l_partkey from lineitem where l_partkey = 5")
	b := fp(t, "  SELECT   l_partkey\n\tFROM lineitem -- comment\n WHERE l_partkey=5 ")
	if a != b {
		t.Errorf("equivalent statements got different fingerprints:\n%q\n%q", a, b)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := fp(t, "select l_partkey from lineitem where l_partkey = 5")
	for _, other := range []string{
		"select l_partkey from lineitem where l_partkey = 6",      // constant
		"select l_suppkey from lineitem where l_partkey = 5",      // output column
		"select l_partkey from lineitem where l_suppkey = 5",      // predicate column
		"select l_partkey from lineitem where l_partkey <= 5",     // operator
		"select l_partkey from orders where l_partkey = 5",        // table
		"select l_partkey from lineitem where l_partkey = '5'",    // literal kind
		"select l_partkey from lineitem where l_partkey = 5.0",    // numeric form
		"select l_partkey as k from lineitem where l_partkey = 5", // alias
	} {
		if fp(t, other) == base {
			t.Errorf("distinct statement %q collides with base fingerprint", other)
		}
	}
}

func TestFingerprintHollowsIdentifiers(t *testing.T) {
	key := fp(t, "select l_partkey from lineitem")
	text, _, ok := strings.Cut(key, "|")
	if !ok {
		t.Fatalf("fingerprint missing reference-list separator: %q", key)
	}
	if strings.Contains(text, "l_partkey") || strings.Contains(text, "lineitem") {
		t.Errorf("identifiers not hollowed out of fingerprint text: %q", text)
	}
	if !strings.Contains(key, "l_partkey") || !strings.Contains(key, "lineitem") {
		t.Errorf("identifiers missing from reference list: %q", key)
	}
}

func TestFingerprintStringLiteralCannotForgeBoundary(t *testing.T) {
	// A string literal whose content mimics token separators must not
	// collide with the structurally different statement it mimics.
	a := fp(t, "select l_partkey from lineitem where l_shipmode = 'AIR RAIL'")
	b := fp(t, "select l_partkey from lineitem where l_shipmode = 'AIR' 'RAIL'")
	if a == b {
		t.Error("string content forged a token boundary")
	}
}

func TestFingerprintLexError(t *testing.T) {
	if _, err := Fingerprint("select 'unterminated"); err == nil {
		t.Error("expected lex error")
	}
}

// oracleLex and oracleFingerprint are the token-slice lexer and the
// fingerprint built on it as they stood before Fingerprint became a single
// pass over the source, frozen here as the reference both the new Fingerprint
// and the scanToken-based lex are held to: a plan cache warmed under the old
// keys must be hit by the new ones.
func oracleLex(src string) ([]token, error) {
	var toks []token
	pos := 0
	for {
		for pos < len(src) {
			c := src[pos]
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				pos++
				continue
			}
			if c == '-' && pos+1 < len(src) && src[pos+1] == '-' {
				for pos < len(src) && src[pos] != '\n' {
					pos++
				}
				continue
			}
			break
		}
		if pos >= len(src) {
			return append(toks, token{kind: tokEOF, pos: pos}), nil
		}
		start := pos
		c := src[pos]
		switch {
		case isIdentStart(c):
			for pos < len(src) && isIdentChar(src[pos]) {
				pos++
			}
			toks = append(toks, token{kind: tokIdent, text: strings.ToLower(src[start:pos]), pos: start})
		case c >= '0' && c <= '9':
			for pos < len(src) && (src[pos] >= '0' && src[pos] <= '9' || src[pos] == '.') {
				pos++
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:pos], pos: start})
		case c == '\'':
			pos++
			var sb strings.Builder
			for {
				if pos >= len(src) {
					return nil, fmt.Errorf("sqlparser: unterminated string at %d", start)
				}
				if src[pos] == '\'' {
					if pos+1 < len(src) && src[pos+1] == '\'' {
						sb.WriteByte('\'')
						pos += 2
						continue
					}
					pos++
					break
				}
				sb.WriteByte(src[pos])
				pos++
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c == '<' || c == '>' || c == '=' || c == '!':
			pos++
			op := string(c)
			if pos < len(src) && (src[pos] == '=' || (c == '<' && src[pos] == '>')) {
				op += string(src[pos])
				pos++
			}
			if op == "!=" {
				op = "<>"
			}
			if op == "!" {
				return nil, fmt.Errorf("sqlparser: unexpected '!' at %d", start)
			}
			toks = append(toks, token{kind: tokCompare, text: op, pos: start})
		case strings.ContainsRune("(),*+-/.", rune(c)):
			pos++
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: start})
		default:
			return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", c, start)
		}
	}
}

func oracleFingerprint(src string) (string, error) {
	toks, err := oracleLex(src)
	if err != nil {
		return "", err
	}
	var text, refs strings.Builder
	for _, t := range toks {
		switch t.kind {
		case tokEOF:
		case tokIdent:
			text.WriteString("? ")
			refs.WriteString(t.text)
			refs.WriteByte(',')
		case tokString:
			text.WriteByte('\'')
			text.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			text.WriteString("' ")
		default:
			text.WriteString(t.text)
			text.WriteByte(' ')
		}
	}
	text.WriteByte('|')
	text.WriteString(refs.String())
	return text.String(), nil
}

// checkAgainstOracle asserts that Fingerprint and lex answer src exactly as
// the frozen implementations do: same key or same error, same tokens.
func checkAgainstOracle(t *testing.T, src string) {
	t.Helper()
	wantKey, wantErr := oracleFingerprint(src)
	gotKey, gotErr := Fingerprint(src)
	if gotKey != wantKey || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("Fingerprint(%q) = %q, %v; the lexer-based oracle gives %q, %v", src, gotKey, gotErr, wantKey, wantErr)
	}
	wantToks, wantErr := oracleLex(src)
	gotToks, gotErr := lex(src)
	if !reflect.DeepEqual(gotToks, wantToks) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("lex(%q) = %v, %v; the oracle gives %v, %v", src, gotToks, gotErr, wantToks, wantErr)
	}
}

// fingerprintEdgeCases are the statements the equivalence test and the fuzz
// target both start from: the shapes of the statements above, the benchmark
// pools' shapes, and every lexical corner — comments, mixed case, doubled
// quotes, unterminated strings, stray '!' and bytes outside the grammar.
var fingerprintEdgeCases = []string{
	"",
	" \t\r\n",
	"-- only a comment",
	"select l_partkey from lineitem where l_partkey = 5",
	"  SELECT   l_partkey\n\tFROM lineitem -- comment\n WHERE l_partkey=5 ",
	"select l_partkey as k from lineitem where l_partkey = 5.0",
	"select l_partkey from lineitem where l_shipmode = 'AIR RAIL'",
	"select l_partkey from lineitem where l_shipmode = 'AIR' 'RAIL'",
	"select l_partkey, sum(l_quantity) as qty from lineitem where l_partkey = 1234 group by l_partkey",
	"select o_custkey, sum(o_totalprice) as total from orders where o_custkey >= 17 and o_custkey <= 25 group by o_custkey",
	"select sum(l_extendedprice * (1 - l_discount)) as revenue from lineitem where l_shipdate >= '1994-01-01' and l_discount < 0.07",
	"select c_name, o_orderkey, sum(l_quantity) as q from customer, orders, lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey and o_totalprice > 300000 group by c_name, o_orderkey",
	"create view v with schemabinding as select o_custkey, count_big(*) as cnt from orders group by o_custkey",
	"insert into lineitem values (1, 2, 3, 4, 5.5, 'x', '1995-01-01')",
	"delete from lineitem where l_orderkey = 7 and l_linenumber <> 2",
	"SeLeCt A_b1, _x FROM T WHERE a != b AND c <> d AND e == f AND g <= h AND i >= j AND k < l AND m > n",
	"select 'it''s', '''', '', 'a''''b' from t",
	"select 'unterminated",
	"select 'ends on an escaped quote''",
	"select a from t where b = 'x' -- trailing comment without newline",
	"select a - -1, a--b\n, c from t",
	"select a ! b",
	"select a !",
	"select a from t where b = !",
	"select a from t; drop",
	"select \"quoted\" from t",
	"select caf\xc3\xa9 from t",
	"select '\xff\xfe caf\xc3\xa9 \u2028' from t",
	"select \x00 from t",
	"select 1.2.3, 007, 1e5, .5 from t",
	"a.b.c(d,e)*f/g+h-i",
	"<><=>=<<>>==!=",
}

func TestFingerprintMatchesLexerOracle(t *testing.T) {
	for _, src := range fingerprintEdgeCases {
		checkAgainstOracle(t, src)
	}
	// The paper workload's 1000 queries, as rendered SQL text.
	gen := workload.New(tpch.NewCatalog(0.5), workload.DefaultConfig(1))
	for i, n := 0, 0; n < 1000; i++ {
		q := gen.Query(i)
		if q.Validate() != nil {
			continue
		}
		n++
		src := q.String()
		if _, err := Fingerprint(src); err != nil {
			t.Fatalf("workload query %d does not scan: %v\n%s", i, err, src)
		}
		checkAgainstOracle(t, src)
		checkAgainstOracle(t, strings.ToUpper(src)+" -- upper-cased")
	}
}

// FuzzFingerprint holds Fingerprint (and lex) to the frozen lexer-based
// implementation on arbitrary bytes. The committed corpus under
// testdata/fuzz/FuzzFingerprint is the edge-case list above.
func FuzzFingerprint(f *testing.F) {
	for _, src := range fingerprintEdgeCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) { checkAgainstOracle(t, src) })
}
