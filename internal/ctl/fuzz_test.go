package ctl

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"drampower/internal/desc"
)

// convertAccessTrace renders a text access trace in the .dab binary
// encoding, for seeding the binary half of the fuzz corpus from the
// shared testdata.
func convertAccessTrace(f *testing.F, text []byte) []byte {
	f.Helper()
	sc := NewScanner(bytes.NewReader(text))
	var reqs []Request
	for sc.Scan() {
		reqs = append(reqs, sc.Request())
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryAccessTrace(&buf, reqs); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAccessScanner drives both access-trace parsers through the
// sniffing NewAccessSource with mutated inputs, seeded from the testdata
// sample (text and converted binary) plus handcrafted edge cases. The
// parsers must never panic, must only fail with positioned *desc.ParseError,
// and every accepted request stream must survive its format's canonical
// round-trip.
func FuzzAccessScanner(f *testing.F) {
	if text, err := os.ReadFile("testdata/sample_access.txt"); err == nil {
		f.Add(text)
		f.Add(convertAccessTrace(f, text))
	}
	f.Add([]byte("0 r 0x2400\n12 w 0x2401\n"))
	f.Add([]byte("# only a comment\n\n  \t\n"))
	f.Add([]byte("9223372036854775807 WRITE 0xfffff # max slot\n"))
	f.Add([]byte("5 rd 0x # bad hex\n"))
	f.Add([]byte("0 r 1 trailing\n"))
	hdr := []byte{0xDA, 'D', 'A', 'B', 1}
	f.Add(append([]byte(nil), hdr...))                           // empty binary trace
	f.Add(append(append([]byte(nil), hdr...), 0x01, 0x02, 0x08)) // one write
	f.Add(append(append([]byte(nil), hdr...), 0x82, 0x00, 0x00)) // reserved flags
	f.Add(append(append([]byte(nil), hdr...), 0x00, 0x01, 0x00)) // negative slot
	f.Add([]byte{0xDA, 'D', 'A', 'B', 9})                        // bad version
	f.Add([]byte{0xDA, 'D'})                                     // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewAccessSource(bytes.NewReader(data))
		var reqs []Request
		for src.Scan() {
			reqs = append(reqs, src.Request())
			if len(reqs) >= 4096 {
				break
			}
		}
		if err := src.Err(); err != nil {
			var pe *desc.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-positioned scanner error %T: %v", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("scanner error with position %d: %v", pe.Line, pe)
			}
		}
		if len(reqs) == 0 {
			return
		}
		// Canonical round trips through both encodings.
		var text bytes.Buffer
		if err := WriteAccessTrace(&text, reqs); err != nil {
			t.Fatalf("accepted requests failed to render: %v", err)
		}
		rt := NewScanner(bytes.NewReader(text.Bytes()))
		for i := 0; rt.Scan(); i++ {
			if got := rt.Request(); got != reqs[i] {
				t.Fatalf("text round-trip request %d = %+v, want %+v", i, got, reqs[i])
			}
		}
		if err := rt.Err(); err != nil {
			t.Fatalf("canonical text failed to rescan: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinaryAccessTrace(&bin, reqs); err != nil {
			t.Fatalf("accepted requests failed to encode: %v", err)
		}
		brt := NewBinaryScanner(bytes.NewReader(bin.Bytes()))
		for i := 0; brt.Scan(); i++ {
			if got := brt.Request(); got != reqs[i] {
				t.Fatalf("binary round-trip request %d = %+v, want %+v", i, got, reqs[i])
			}
		}
		if err := brt.Err(); err != nil {
			t.Fatalf("re-encoded trace failed to rescan: %v", err)
		}
	})
}
