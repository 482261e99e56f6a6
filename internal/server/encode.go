package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"matview/internal/sqlvalue"
	"matview/internal/storage"
)

// encodeBufs recycles /query response buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendQueryResponse appends the /query reply — resp's fields, with rows in
// place of resp.Rows — byte for byte as encoding/json's Encoder writes a
// QueryResponse whose Rows hold nil, bool, int64, float64 and string: field
// order, omitempty, HTML-safe string escapes, ES6 floats, trailing newline.
// The one deliberate difference: a NaN or ±Inf cell, which encoding/json
// refuses once the status line is out, is an error before anything is sent.
func appendQueryResponse(b []byte, resp *QueryResponse, rows []storage.Row) ([]byte, error) {
	b = append(b, '{')
	if len(resp.Columns) > 0 {
		b = append(b, `"columns":[`...)
		for i, c := range resp.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c)
		}
		b = append(b, "],"...)
	}
	if len(rows) > 0 {
		b = append(b, `"rows":[`...)
		for i, row := range rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				switch v.Kind() {
				case sqlvalue.KindNull:
					b = append(b, "null"...)
				case sqlvalue.KindBool:
					b = strconv.AppendBool(b, v.Bool())
				case sqlvalue.KindInt:
					b = strconv.AppendInt(b, v.Int(), 10)
				case sqlvalue.KindFloat:
					f := v.Float()
					if math.IsNaN(f) || math.IsInf(f, 0) {
						return nil, fmt.Errorf("server: row %d, column %d is %v, which JSON cannot carry", i, j, f)
					}
					b = appendJSONFloat(b, f)
				case sqlvalue.KindString:
					b = appendJSONString(b, v.Str())
				default: // dates render as "YYYY-MM-DD"
					b = append(b, '"')
					b = time.Unix(v.DateDays()*86400, 0).UTC().AppendFormat(b, "2006-01-02")
					b = append(b, '"')
				}
			}
			b = append(b, ']')
		}
		b = append(b, "],"...)
	}
	b = strconv.AppendInt(append(b, `"rowCount":`...), int64(resp.RowCount), 10)
	if resp.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = strconv.AppendBool(append(b, `,"usedViews":`...), resp.UsedViews)
	b = strconv.AppendBool(append(b, `,"cached":`...), resp.Cached)
	if resp.Plan != "" {
		b = appendJSONString(append(b, `,"plan":`...), resp.Plan)
	}
	b = strconv.AppendInt(append(b, `,"elapsedMicros":`...), resp.ElapsedMicros, 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), resp.Epoch, 10)
	return append(b, "}\n"...), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: shortest
// round-tripping digits, exponent form below 1e-6 and from 1e21, and the
// leading zero of a two-digit exponent dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString quotes s with encoding/json's default escapes: \" \\ and
// \b \f \n \r \t in short form, \u00XX for other control bytes and for the
// HTML-sensitive < > & and for U+2028 and U+2029, and \ufffd for each byte
// of invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', byte(c))
		case '\b', '\t', '\n', '\f', '\r': // bytes 8, 9, 10, 12, 13
			b = append(b, '\\', "btn?fr"[c-'\b'])
		case utf8.RuneError:
			b = append(b, `\ufffd`...)
		default: // 00XX for a byte, 202X for the two line separators
			b = append(b, '\\', 'u', hex[c>>12], '0', hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
