package wal

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Epoch: 1, SQL: "insert into t values (1)"},
		{Epoch: 2, SQL: ""},
		{Epoch: 1 << 40, SQL: strings.Repeat("x", 10_000)},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	got, validLen, torn := scanFrames(buf)
	if torn {
		t.Fatal("clean buffer reported torn")
	}
	if validLen != len(buf) {
		t.Fatalf("validLen = %d, want %d", validLen, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestFrameCorruptionDetected flips every byte position of a two-record
// buffer in turn; the scan must never return a record whose bytes were
// touched — either the scan stops before it (torn) or the corruption was in
// the second record and only the first survives.
func TestFrameCorruptionDetected(t *testing.T) {
	r1 := Record{Epoch: 7, SQL: "insert into orders values (1, 2)"}
	r2 := Record{Epoch: 8, SQL: "delete from orders where o_orderkey = 1"}
	clean := appendFrame(appendFrame(nil, r1), r2)
	firstLen := len(appendFrame(nil, r1))
	for i := range clean {
		buf := append([]byte(nil), clean...)
		buf[i] ^= 0xff
		recs, _, torn := scanFrames(buf)
		if i < firstLen {
			// Corruption in the first frame: nothing trustworthy follows it
			// (a bad length prefix makes every later boundary meaningless).
			if len(recs) != 0 || !torn {
				t.Fatalf("flip at %d: got %d records, torn=%v; want 0 records, torn", i, len(recs), torn)
			}
		} else {
			if len(recs) != 1 || recs[0] != r1 || !torn {
				t.Fatalf("flip at %d: got %d records, torn=%v; want only first record, torn", i, len(recs), torn)
			}
		}
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	rec := Record{Epoch: 3, SQL: "create view v with schemabinding as select 1"}
	clean := appendFrame(nil, rec)
	for cut := 1; cut < len(clean); cut++ {
		recs, validLen, torn := scanFrames(clean[:cut])
		if len(recs) != 0 || !torn || validLen != 0 {
			t.Fatalf("cut at %d: records=%d torn=%v validLen=%d; want torn with no records", cut, len(recs), torn, validLen)
		}
	}
}

func TestFrameRejectsHugeLength(t *testing.T) {
	// A corrupt length prefix must be treated as torn, not as an allocation.
	buf := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3}
	if _, _, ok, torn := readFrame(buf, 0); ok || !torn {
		t.Fatalf("oversized length: ok=%v torn=%v, want torn", ok, torn)
	}
}

// FuzzWALFrame holds the log's framing on arbitrary input: a record framed
// by appendFrame reads back as itself, ending where the frame ends; the same
// frame with one byte of its checksum or payload changed is refused as
// torn; and readFrame, walking arbitrary bytes, never panics and accepts
// only a frame whose length fits and whose payload has the checksum it
// carries, decoding the record that payload holds.
func FuzzWALFrame(f *testing.F) {
	clean := appendFrame(appendFrame(nil, Record{Epoch: 1, SQL: "insert into t values (1)"}), Record{Epoch: 2})
	f.Add(uint64(7), "insert into t values (1)", uint16(9), byte(1), clean)
	f.Add(uint64(0), "", uint16(0), byte(0x80), clean[:len(clean)-1])
	f.Add(uint64(1<<63), "delete from t", uint16(5), byte(0xff), []byte{8, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, epoch uint64, sql string, at uint16, flip byte, data []byte) {
		want := Record{Epoch: epoch, SQL: sql}
		frame := appendFrame(nil, want)
		if rec, next, ok, torn := readFrame(frame, 0); !ok || torn || next != len(frame) || rec != want {
			t.Fatalf("readFrame(appendFrame(%+v)) = %+v, %d, %t, %t", want, rec, next, ok, torn)
		}
		if i := 4 + int(at)%(len(frame)-4); flip != 0 {
			frame[i] ^= flip
			if _, _, ok, torn := readFrame(frame, 0); ok || !torn {
				t.Fatalf("a frame of %+v with byte %d changed was accepted", want, i)
			}
		}
		for off := 0; ; {
			rec, next, ok, torn := readFrame(data, off)
			if !ok {
				if next != off || torn == (off == len(data)) {
					t.Fatalf("refusal at %d of %d bytes: next %d, torn %t", off, len(data), next, torn)
				}
				return
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			payload := data[off+frameHeaderSize : next]
			if len(payload) != n || n < payloadMinSize || n > maxFrame ||
				crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("accepted a frame at %d that does not verify: length %d, payload %d bytes", off, n, len(payload))
			}
			if rec.Epoch != binary.LittleEndian.Uint64(payload) || rec.SQL != string(payload[payloadMinSize:]) {
				t.Fatalf("frame at %d decoded as %+v", off, rec)
			}
			off = next
		}
	})
}
