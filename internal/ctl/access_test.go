package ctl

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"testing/iotest"

	"drampower/internal/desc"
)

func scanAll(t *testing.T, src Source) []Request {
	t.Helper()
	var reqs []Request
	for src.Scan() {
		reqs = append(reqs, src.Request())
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestScannerSample(t *testing.T) {
	text, err := os.ReadFile("testdata/sample_access.txt")
	if err != nil {
		t.Fatal(err)
	}
	reqs := scanAll(t, NewScanner(bytes.NewReader(text)))
	want := []Request{
		{0, false, 0x2400},
		{12, false, 0x2401},
		{24, false, 0x2402},
		{40, true, 0x93400},
		{180, false, 9437184},
		{2200, true, 0x100},
		{2300, true, 0x101},
		{2400, true, 257},
	}
	if len(reqs) != len(want) {
		t.Fatalf("got %d requests, want %d", len(reqs), len(want))
	}
	for i := range want {
		if reqs[i] != want[i] {
			t.Errorf("request %d = %+v, want %+v", i, reqs[i], want[i])
		}
	}
}

// TestTextRoundTrip pins the canonical rendering: AppendRequest output
// reparses to the same requests, and a second render is byte-identical.
func TestTextRoundTrip(t *testing.T) {
	reqs := []Request{{0, false, 0}, {7, true, 0x1fffe}, {7, false, 12345}, {1 << 40, true, 1 << 50}}
	var a bytes.Buffer
	if err := WriteAccessTrace(&a, reqs); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, NewScanner(bytes.NewReader(a.Bytes())))
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
	var b bytes.Buffer
	if err := WriteAccessTrace(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("canonical rendering is not a fixed point")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	reqs := []Request{{0, false, 99}, {5, true, 3}, {5, false, 1 << 40}, {100000, true, 0}}
	var buf bytes.Buffer
	if err := WriteBinaryAccessTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != AccessBinaryMagicByte {
		t.Fatalf("first byte %#x, want %#x", buf.Bytes()[0], AccessBinaryMagicByte)
	}
	got := scanAll(t, NewBinaryScanner(bytes.NewReader(buf.Bytes())))
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
	// An empty trace is just the header, and scans as empty.
	buf.Reset()
	if err := WriteBinaryAccessTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5 {
		t.Fatalf("empty trace encodes to %d bytes, want 5", buf.Len())
	}
	if got := scanAll(t, NewBinaryScanner(bytes.NewReader(buf.Bytes()))); len(got) != 0 {
		t.Fatalf("empty trace scanned %d requests", len(got))
	}
}

// TestNewAccessSourceSniff checks both encodings arrive at the same
// requests through the sniffing constructor.
func TestNewAccessSourceSniff(t *testing.T) {
	reqs := []Request{{3, false, 17}, {9, true, 0x2400}}
	var text, bin bytes.Buffer
	if err := WriteAccessTrace(&text, reqs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryAccessTrace(&bin, reqs); err != nil {
		t.Fatal(err)
	}
	for name, rd := range map[string]io.Reader{
		"text":           bytes.NewReader(text.Bytes()),
		"binary":         bytes.NewReader(bin.Bytes()),
		"text-dribble":   iotest.OneByteReader(bytes.NewReader(text.Bytes())),
		"binary-dribble": iotest.OneByteReader(bytes.NewReader(bin.Bytes())),
	} {
		got := scanAll(t, NewAccessSource(rd))
		if len(got) != len(reqs) {
			t.Fatalf("%s: got %d requests, want %d", name, len(got), len(reqs))
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				t.Errorf("%s: request %d = %+v, want %+v", name, i, got[i], reqs[i])
			}
		}
	}
	if got := scanAll(t, NewAccessSource(strings.NewReader(""))); len(got) != 0 {
		t.Fatalf("empty input scanned %d requests", len(got))
	}
}

func TestScannerErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		in     string
		line   int
		substr string
	}{
		{"bad-slot", "x r 0\n", 1, "bad slot"},
		{"negative-slot", "-1 r 0\n", 1, "bad slot"},
		{"bad-op", "0 q 0\n", 1, "unknown operation"},
		{"missing-op", "0\n", 1, "missing operation"},
		{"missing-addr", "0 r\n", 1, "missing address"},
		{"bad-addr", "0 r zz\n", 1, "bad address"},
		{"bad-hex", "0 r 0x\n", 1, "bad address"},
		{"trailing", "0 r 0 9\n", 1, "trailing field"},
		{"later-line", "0 r 0\n1 r 1\nbad\n", 3, "bad slot"},
		{"slot-overflow", "99999999999999999999 r 0\n", 1, "bad slot"},
		{"addr-overflow", "0 r 0xffffffffffffffffff\n", 1, "bad address"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScanner(strings.NewReader(tc.in))
			for sc.Scan() {
			}
			var pe *desc.ParseError
			if !errors.As(sc.Err(), &pe) {
				t.Fatalf("got %v, want *desc.ParseError", sc.Err())
			}
			if pe.Line != tc.line || !strings.Contains(pe.Msg, tc.substr) {
				t.Fatalf("got line %d %q, want line %d containing %q", pe.Line, pe.Msg, tc.line, tc.substr)
			}
		})
	}
	// A reader failure surfaces as a ParseError wrapping the cause.
	boom := errors.New("boom")
	sc := NewScanner(iotest.ErrReader(boom))
	for sc.Scan() {
	}
	if !errors.Is(sc.Err(), boom) {
		t.Fatalf("reader error not wrapped: %v", sc.Err())
	}
}

// A stream cut mid-line reports the reader's failure, not the syntax of
// the unterminated tail bufio.Scanner hands out before it.
func TestScannerCutLineReportsReaderError(t *testing.T) {
	cause := errors.New("body too large")
	sc := NewScanner(io.MultiReader(strings.NewReader("0 r 0x10\n5 r"), iotest.ErrReader(cause)))
	for sc.Scan() {
	}
	if !errors.Is(sc.Err(), cause) {
		t.Fatalf("error %v does not unwrap to the reader error", sc.Err())
	}
}

func TestBinaryScannerErrors(t *testing.T) {
	hdr := []byte{0xDA, 'D', 'A', 'B', 1}
	for _, tc := range []struct {
		name   string
		in     []byte
		substr string
	}{
		{"truncated-header", []byte{0xDA, 'D'}, "truncated access-trace header"},
		{"bad-magic", []byte{0xDA, 'D', 'T', 'B', 1}, "bad access-trace magic"},
		{"bad-version", []byte{0xDA, 'D', 'A', 'B', 9}, "unsupported access-trace version"},
		{"reserved-flags", append(append([]byte{}, hdr...), 0x82, 0x00, 0x00), "reserved flag bits"},
		{"truncated-record", append(append([]byte{}, hdr...), 0x01, 0x02), "truncated request record"},
		{"negative-slot", append(append([]byte{}, hdr...), 0x00, 0x01, 0x00), "negative slot"},
		{"negative-addr", append(append([]byte{}, hdr...), 0x00, 0x00, 0x01), "negative address"},
		{"overlong-varint", append(append([]byte{}, hdr...), 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), "varint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewBinaryScanner(bytes.NewReader(tc.in))
			for sc.Scan() {
			}
			var pe *desc.ParseError
			if !errors.As(sc.Err(), &pe) {
				t.Fatalf("got %v, want *desc.ParseError", sc.Err())
			}
			if !strings.Contains(pe.Msg, tc.substr) {
				t.Fatalf("got %q, want substring %q", pe.Msg, tc.substr)
			}
		})
	}
	// The writer refuses negative fields rather than encoding them.
	bw := NewBinaryWriter(io.Discard)
	if err := bw.Write(Request{Slot: -1}); err == nil {
		t.Fatal("negative slot encoded")
	}
}

func TestRequestString(t *testing.T) {
	if got := (Request{Slot: 12, Write: true, Addr: 255}).String(); got != "12 w 0xff" {
		t.Fatalf("String: %q", got)
	}
	if got := (Request{Slot: 0, Addr: 0}).String(); got != "0 r 0x0" {
		t.Fatalf("String: %q", got)
	}
}

// TestScannerZeroAllocs pins the allocation discipline on the accept
// path, matching the command-trace scanners.
func TestScannerZeroAllocs(t *testing.T) {
	reqs := make([]Request, 512)
	for i := range reqs {
		reqs[i] = Request{Slot: int64(i * 3), Write: i%2 == 0, Addr: int64(i * 977)}
	}
	var text bytes.Buffer
	if err := WriteAccessTrace(&text, reqs); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(text.Bytes())
	sc := NewScanner(rd)
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		if !sc.Scan() {
			rd.Seek(0, io.SeekStart)
			sc = NewScanner(rd)
			return
		}
		n++
	})
	if n == 0 {
		t.Fatal("scanner never advanced")
	}
	// Budget covers the periodic re-construction of the scanner, not the
	// per-line path (which must be allocation-free).
	if avg > 0.5 {
		t.Fatalf("text scan path allocates %.2f allocs/op", avg)
	}
}
