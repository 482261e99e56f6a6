package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// The two statements the decode cases wrap: each ends in a WHERE clause a
// case may extend, and each answers 200 on the test database.
const (
	decodeQuerySQL = "select l_partkey from lineitem where l_partkey = 1"
	decodeExecSQL  = "delete from lineitem where l_orderkey = -1"
)

// decodeCases are request bodies around a statement (%s). query and exec
// are the statuses /query and /exec answer with.
var decodeCases = []struct {
	name, body  string
	query, exec int
}{
	{"canonical", `{"sql":"%s"}`, 200, 200},
	{"whitespace", " \r\n\t{ \"sql\" : \"%s\" , \"explain\" : false } \n", 200, 400},
	{"explain first", `{"explain":true,"sql":"%s"}`, 200, 400},
	{"key SQL", `{"SQL":"%s"}`, 200, 200},
	{"key Explain", `{"sql":"%s","Explain":false}`, 200, 400},
	{"escaped key", `{"s\u0071l":"%s"}`, 200, 200},
	{"duplicate sql", `{"sql":"%s and 1 = 0","sql":"%s"}`, 200, 200},
	{"duplicate explain", `{"sql":"%s","explain":true,"explain":false}`, 200, 400},
	{"escapes", `{"sql":"%s and l_comment <> '\u003c\u2028\"\ud83d\ude00\\\/\n\t'"}`, 200, 200},
	{"lone surrogate", `{"sql":"%s and l_comment <> '\ud83d'"}`, 200, 200},
	{"reversed pair", `{"sql":"%s and l_comment <> '\ude00\ud83d'"}`, 200, 200},
	{"invalid UTF-8", "{\"sql\":\"%s and l_comment <> '\xff\xfe'\"}", 200, 200},
	{"encoded U+FFFD", "{\"sql\":\"%s and l_comment <> '\xef\xbf\xbd'\"}", 200, 200},
	{"raw control byte", "{\"sql\":\"%s\x01\"}", 400, 400},
	{"bad escape", `{"sql":"%s\q"}`, 400, 400},
	{"short unicode escape", `{"sql":"%s\u00"}`, 400, 400},
	{"sql null", `{"sql":null}`, 400, 400},
	{"sql number", `{"sql":1}`, 400, 400},
	{"explain string", `{"explain":"true","sql":"%s"}`, 400, 400},
	{"explain truex", `{"sql":"%s","explain":truex}`, 400, 400},
	{"unknown key", `{"sql":"%s","nope":1}`, 400, 400},
	{"empty object", `{}`, 400, 400},
	{"null body", `null`, 400, 400},
	{"array body", `[]`, 400, 400},
	{"empty body", ``, 400, 400},
	{"trailing comma", `{"sql":"%s",}`, 400, 400},
	{"trailing data", `{"sql":"%s"} x`, 400, 400},
	{"second object", `{"sql":"%s"}{}`, 400, 400},
	{"unterminated", `{"sql":"%s`, 400, 400},
	{"exactly 1 MB", `{"sql":"%s"}` + "\x00pad", 200, 200},
	{"1 MB + 1", `{"sql":"%s"}` + "\x00pad+1", 400, 400},
}

// decodeBody fills case c in with sql; the two size cases are padded with
// whitespace to 1 MB and one byte more.
func decodeBody(body, sql string) []byte {
	pad, over := strings.CutSuffix(body, "\x00pad+1")
	if !over {
		pad, _ = strings.CutSuffix(body, "\x00pad")
	}
	out := strings.ReplaceAll(pad, "%s", sql)
	if pad != body {
		n := maxBody - len(out)
		if over {
			n++
		}
		out += strings.Repeat(" ", n)
	}
	return []byte(out)
}

func bodyRequest(path string, body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
}

// bodyOnly is a request with nothing but a body: all a decoder reads.
func bodyOnly(body []byte) *http.Request {
	return &http.Request{Body: io.NopCloser(bytes.NewReader(body))}
}

// checkDecode reports where decodeRequest and decodeJSON part on body:
// accepting or refusing, the decoded struct, the error text.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	for _, mk := range []func() any{func() any { return new(QueryRequest) }, func() any { return new(ExecRequest) }} {
		got, want := mk(), mk()
		gerr := decodeRequest(bodyOnly(body), got)
		werr := decodeJSON(bodyOnly(body), want)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%T from %q: error %v, encoding/json says %v", got, body, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q: decoded %+v, encoding/json decodes %+v", got, body, got, want)
		}
	}
}

// TestRequestDecodeMatchesEncodingJSON: the one-pass decoder of /query and
// /exec bodies gives encoding/json's answer on every edge of its canonical
// form, and the handler answers each case with the status it did, and a
// refused body with encoding/json's error text.
func TestRequestDecodeMatchesEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	h := ts.Config.Handler
	for _, c := range decodeCases {
		for _, ep := range []struct {
			path, sql string
			code      int
		}{{"/query", decodeQuerySQL, c.query}, {"/exec", decodeExecSQL, c.exec}} {
			body := decodeBody(c.body, ep.sql)
			checkDecode(t, body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, bodyRequest(ep.path, body))
			if rec.Code != ep.code {
				t.Errorf("%s %s: status %d, want %d: %s", ep.path, c.name, rec.Code, ep.code, rec.Body)
			}
			var dst any = new(QueryRequest)
			if ep.path == "/exec" {
				dst = new(ExecRequest)
			}
			if err := decodeJSON(bodyOnly(body), dst); err != nil {
				want, _ := json.Marshal(errorResponse{Error: err.Error()})
				if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
					t.Errorf("%s %s: body %s, want %s", ep.path, c.name, got, want)
				}
			}
		}
	}
}

// FuzzRequestDecode: on any bytes, decodeRequest decodes a /query and an
// /exec body exactly as decodeJSON does. The seeds are the table above but
// its two 1 MB bodies, which the table test covers.
func FuzzRequestDecode(f *testing.F) {
	for _, c := range decodeCases {
		if !strings.Contains(c.body, "\x00pad") {
			f.Add(decodeBody(c.body, decodeQuerySQL))
			f.Add(decodeBody(c.body, decodeExecSQL))
		}
	}
	f.Fuzz(checkDecode)
}
