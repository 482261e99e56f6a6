package sqlparser

// Fingerprint computes the shallow-match cache key of a SQL statement, the
// statement-level analogue of the expression fingerprint of §3.1.2: the
// statement is scanned token by token, identifiers are hollowed out of the
// normalized text (replaced by "?"), and the identifiers themselves are
// appended as an ordered reference list. The pair — hollowed text plus ordered identifier
// list — identifies the statement up to whitespace, letter case, and
// comments, exactly like the paper's (text, column-reference list) pair
// identifies an expression. Constants stay in the text, so statements that
// differ only in a literal get distinct keys; that is what makes the
// fingerprint sound as a plan-cache key, since plans embed their constants.
//
// Two statements share a fingerprint if and only if they lex to the same
// token stream, so a cached plan keyed by it can be replayed for any
// statement that maps to the same key.
func Fingerprint(src string) (string, error) {
	// One buffer holds both halves while the source is scanned once: the
	// hollowed text grows from the front and the reference list from textMax.
	// A token adds at most one byte more than it spans to either half, so
	// neither outgrows its region.
	textMax := 2*len(src) + 1
	buf := make([]byte, textMax+len(src)+1)
	text, refs := buf[:0:textMax], buf[textMax:textMax]
	for pos := 0; ; {
		kind, start, end, err := scanToken(src, pos)
		if err != nil {
			return "", err
		}
		switch kind {
		case tokEOF:
			text = append(text, '|')
			n := len(text) + copy(buf[len(text):], refs)
			return string(buf[:n]), nil
		case tokIdent:
			text = append(text, "? "...)
			for _, c := range []byte(src[start:end]) {
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				refs = append(refs, c)
			}
			refs = append(refs, ',')
		default:
			// Operators are spelled one way; a string literal is copied with
			// its quotes and doubled quotes as written, so its content can
			// never forge a token boundary.
			tok := src[start:end]
			if tok == "!=" {
				tok = "<>"
			}
			text = append(append(text, tok...), ' ')
		}
		pos = end
	}
}
