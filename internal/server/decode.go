package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBody is the largest request body any endpoint reads.
const maxBody = 1 << 20

// decodeJSON reads a request body of at most 1 MB holding exactly one JSON
// object with no unknown fields; anything but whitespace after it is refused.
func decodeJSON(r *http.Request, dst any) error {
	return decodeFrom(http.MaxBytesReader(nil, r.Body, maxBody), dst)
}

// decodeFrom is decodeJSON over any reader of the body.
func decodeFrom(rd io.Reader, dst any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("server: bad request body: trailing data after the JSON object")
	}
	return nil
}

// bodyBufs keeps request-body buffers across requests; one grown past
// keptBody by a large body is dropped instead of pinned.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const keptBody = 64 << 10

// decodeRequest is decodeJSON for a /query or /exec body (dst is a
// *QueryRequest or *ExecRequest), with one contract: the same accepted
// bodies, the same decoded struct, the same refusals with the same error
// text. It reads the body once, under the same 1 MB limit, and decodes the
// canonical form in one pass (scanRequest); every other body — a case-folded,
// unknown or repeated key, null, a number, a lone surrogate, invalid UTF-8,
// trailing data, an oversize or failed read — is handed to decodeFrom over
// the same bytes, followed by the read's own error.
func decodeRequest(r *http.Request, dst any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBody))
	if body := buf.Bytes(); err != nil || !scanRequest(body, dst) {
		err = decodeFrom(&replay{body: body, err: err}, dst)
	}
	if buf.Cap() <= keptBody {
		bodyBufs.Put(buf)
	}
	return err
}

// replay yields a body read earlier, then the error its read ended with
// (io.EOF for a clean end), so a decoder over it sees what it would have
// seen over the request.
type replay struct {
	body []byte
	err  error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.body) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.body)
	r.body = r.body[n:]
	return n, nil
}

// scanRequest decodes body into dst when it is in canonical form and
// reports whether it was: whitespace, an object whose members are "sql"
// (a string) and, for a *QueryRequest, "explain" (true or false), each at
// most once and spelled exactly so, then whitespace to the end. dst is
// written only on success.
func scanRequest(body []byte, dst any) bool {
	var explain *bool
	var sql *string
	switch d := dst.(type) {
	case *QueryRequest:
		sql, explain = &d.SQL, &d.Explain
	case *ExecRequest:
		sql = &d.SQL
	default:
		return false
	}
	s := reqScanner{b: body}
	if !s.byte('{') {
		return false
	}
	var str string
	var flag, seenSQL, seenExplain bool
	if !s.byte('}') {
		for {
			switch {
			case !seenSQL && s.lit(`"sql"`) && s.byte(':'):
				var ok bool
				if str, ok = s.str(); !ok {
					return false
				}
				seenSQL = true
			case explain != nil && !seenExplain && s.lit(`"explain"`) && s.byte(':'):
				switch {
				case s.lit("true"):
					flag = true
				case s.lit("false"):
				default:
					return false
				}
				seenExplain = true
			default:
				return false
			}
			if s.byte('}') {
				break
			}
			if !s.byte(',') {
				return false
			}
		}
	}
	if s.ws(); s.i != len(s.b) {
		return false
	}
	*sql = str
	if explain != nil {
		*explain = flag
	}
	return true
}

// reqScanner walks a request body; every step skips the JSON whitespace in
// front of what it matches.
type reqScanner struct {
	b []byte
	i int
}

func (s *reqScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte consumes c if it comes next.
func (s *reqScanner) byte(c byte) bool {
	if s.ws(); s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes the bytes of t if they come next. What must follow a token
// (':' after a key, ',' or '}' after a value) is the caller's next step, so
// "truex" fails there.
func (s *reqScanner) lit(t string) bool {
	if s.ws(); len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// str decodes the JSON string that comes next. It refuses what
// encoding/json would coerce rather than copy — invalid UTF-8 and a lone
// surrogate escape — as well as everything it would refuse. A string with
// escapes is built in one allocation: none decodes to more bytes than it is
// spelled with.
func (s *reqScanner) str() (string, bool) {
	if !s.byte('"') {
		return "", false
	}
	b, end, esc := s.b, s.i, false
	for ; end < len(b) && b[end] != '"'; end++ {
		if b[end] == '\\' {
			esc = true
			end++
		}
	}
	if end >= len(b) {
		return "", false
	}
	raw := b[s.i:end]
	s.i = end + 1
	var out strings.Builder
	if esc {
		out.Grow(len(raw))
	}
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c < ' ':
			return "", false
		case c == '\\':
			r, n := unescape(raw[i:])
			if n == 0 {
				return "", false
			}
			out.WriteRune(r)
			i += n
		case c < utf8.RuneSelf:
			if esc {
				out.WriteByte(c)
			}
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			if esc {
				out.Write(raw[i : i+n])
			}
			i += n
		}
	}
	if !esc {
		return string(raw), true
	}
	return out.String(), true
}

// unescape decodes the escape that b starts with and returns its rune and
// length; 0 when it is malformed or a lone surrogate.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r, ok := hex4(b, 2)
		if !ok {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if lo, ok := hex4(b, 8); ok && b[6] == '\\' && b[7] == 'u' {
			if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
				return r, 12
			}
		}
	}
	return 0, 0
}

// hex4 parses the four hex digits at b[i:i+4].
func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
