package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"drampower/internal/desc"
)

// binData renders commands into the dtb binary encoding for tests.
func binData(t *testing.T, cmds []Command) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryTrace(&buf, cmds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanAll drains a source and returns its commands, failing on error.
func scanAll(t *testing.T, src Source) []Command {
	t.Helper()
	var cmds []Command
	for src.Scan() {
		cmds = append(cmds, src.Command())
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return cmds
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := map[string][]Command{
		"empty": nil,
		"basic": {
			{Slot: 0, Op: desc.OpActivate, Bank: 2, Row: 17},
			{Slot: 11, Op: desc.OpRead, Bank: 2, Row: 17},
			{Slot: 28, Op: desc.OpPrecharge, Bank: 2, Row: 17},
			{Slot: 100, Op: desc.OpRefresh},
		},
		"power-state": {
			{Slot: 0, Op: desc.OpRefresh},
			{Slot: 200, Op: OpPowerDownEnter},
			{Slot: 800, Op: OpPowerDownExit},
			{Slot: 900, Op: OpSelfRefreshEnter},
			{Slot: 12000, Op: OpSelfRefreshExit},
		},
		// The text parser accepts negative bank/row (rejected later, at
		// Issue) and non-monotone slots; the binary encoding must carry
		// them so the two scanners yield identical streams on any
		// parseable trace.
		"negative-fields":  {{Slot: 5, Op: desc.OpActivate, Bank: -3, Row: -9}},
		"decreasing-slots": {{Slot: 100, Op: desc.OpNop}, {Slot: 1, Op: desc.OpNop}, {Slot: 100, Op: desc.OpNop}},
		"extremes": {
			{Slot: 1<<63 - 1, Op: desc.OpWrite, Bank: 1<<31 - 1, Row: -1 << 31},
			{Slot: 0, Op: desc.OpNop},
		},
		"omitted-fields": {
			{Slot: 1, Op: desc.OpActivate},          // no bank, no row
			{Slot: 2, Op: desc.OpActivate, Row: 7},  // row without bank
			{Slot: 3, Op: desc.OpActivate, Bank: 7}, // bank without row
		},
	}
	for name, cmds := range cases {
		t.Run(name, func(t *testing.T) {
			got := scanAll(t, NewBinaryScanner(bytes.NewReader(binData(t, cmds))))
			if len(got) != len(cmds) {
				t.Fatalf("round-trip produced %d commands, want %d", len(got), len(cmds))
			}
			for i := range cmds {
				if got[i] != cmds[i] {
					t.Errorf("command %d: got %+v, want %+v", i, got[i], cmds[i])
				}
			}
		})
	}
}

// Satellite: both scanners yield identical Command streams — a text trace
// converted to binary decodes to exactly the commands the text scanner
// produces, including the power-state ops, and converting back to text is
// canonical-identical.
func TestBinaryTextEquivalence(t *testing.T) {
	m := model(t)
	cmds := append(WithPowerDown(m, RefreshOnly(m, 40), 1), RandomClosedPage(m, 400, 0.5, 7)...)
	hasPDE := false
	for _, c := range cmds {
		if c.Op == OpPowerDownEnter {
			hasPDE = true
		}
	}
	if !hasPDE {
		t.Fatal("workload has no power-down commands; equivalence test lost its point")
	}

	text := traceText(t, cmds)
	fromText := scanAll(t, NewScanner(bytes.NewReader(text)))
	fromBin := scanAll(t, NewBinaryScanner(bytes.NewReader(binData(t, fromText))))
	if len(fromBin) != len(fromText) {
		t.Fatalf("binary stream has %d commands, text %d", len(fromBin), len(fromText))
	}
	for i := range fromText {
		if fromBin[i] != fromText[i] {
			t.Fatalf("command %d: binary %+v, text %+v", i, fromBin[i], fromText[i])
		}
	}

	// text -> binary -> text is canonical-identical.
	var back bytes.Buffer
	if err := WriteTrace(&back, fromBin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), text) {
		t.Error("text -> binary -> text round-trip is not canonical-identical")
	}
}

// ScanBatch must produce exactly the Scan stream for both scanners, at
// any batch size, including batches that straddle the refill boundary
// (the workload encodes to several times the scanner's 32KB buffer).
func TestScanBatchMatchesScan(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 12000, 0.5, 3) // ~36k commands, >100KB encoded
	text := traceText(t, cmds)
	bin := binData(t, cmds)
	if len(bin) < 2*binBufSize {
		t.Fatalf("encoded trace is %d bytes; want > %d to cross refill boundaries", len(bin), 2*binBufSize)
	}
	want := scanAll(t, NewScanner(bytes.NewReader(text)))

	for _, batch := range []int{1, 3, 61, 4096} {
		sources := map[string]Source{
			"binary": NewBinaryScanner(bytes.NewReader(bin)),
			"text":   NewScanner(bytes.NewReader(text)),
		}
		for name, src := range sources {
			bs := src.(batchSource)
			dst := make([]Command, batch)
			var got []Command
			for {
				n := bs.ScanBatch(dst)
				got = append(got, dst[:n]...)
				if n < batch {
					break
				}
			}
			if err := src.Err(); err != nil {
				t.Fatalf("%s batch=%d: %v", name, batch, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s batch=%d: %d commands, want %d", name, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s batch=%d: command %d = %+v, want %+v", name, batch, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBinaryScannerErrors(t *testing.T) {
	header := string([]byte{0xD7, 'D', 'T', 'B', 1})
	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"empty", "", "truncated dtb header"},
		{"short-header", header[:3], "truncated dtb header"},
		{"bad-magic", "0 act 0 1\n", "bad magic"},
		{"bad-version", string([]byte{0xD7, 'D', 'T', 'B', 9}), "unsupported dtb version"},
		{"reserved-flags", header + string([]byte{0xC1, 0x00}), "reserved flag"},
		{"bad-op", header + string([]byte{0x0F, 0x00}), "op 15 out of range"},
		{"negative-slot", header + string([]byte{0x00, 0x01}), "negative slot"}, // delta -1 from 0
		{"truncated-delta", header + string([]byte{0x00}), "truncated or overlong slot delta"},
		{"truncated-bank", header + string([]byte{0x10, 0x00}), "truncated or overlong bank"},
		{"overlong-varint", header + string([]byte{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}), "slot delta"},
		{"overflow-varint", header + string([]byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}), "slot delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewBinaryScanner(strings.NewReader(tc.data))
			for sc.Scan() {
			}
			err := sc.Err()
			var pe *desc.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T (%v), want *desc.ParseError", err, err)
			}
			if pe.Line < 1 {
				t.Errorf("error ordinal %d, want >= 1", pe.Line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// The error ordinal counts commands, so a decode failure deep into a
// stream points at the offending command, not just "somewhere".
func TestBinaryScannerErrorOrdinal(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := bw.WriteCommand(Command{Slot: int64(10 * i), Op: desc.OpNop}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0xC1}) // 4th command: reserved flag bits
	sc := NewBinaryScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
	}
	var pe *desc.ParseError
	if !errors.As(sc.Err(), &pe) {
		t.Fatalf("error is %T (%v), want *desc.ParseError", sc.Err(), sc.Err())
	}
	if n != 3 || pe.Line != 4 {
		t.Errorf("scanned %d commands with error at ordinal %d, want 3 and 4", n, pe.Line)
	}
}

func TestBinaryWriterRejects(t *testing.T) {
	if err := WriteBinaryTrace(io.Discard, []Command{{Slot: -1, Op: desc.OpNop}}); err == nil {
		t.Error("negative slot encoded without error")
	}
	if err := WriteBinaryTrace(io.Discard, []Command{{Slot: 0, Op: desc.Op(numTraceOps)}}); err == nil {
		t.Error("out-of-range op encoded without error")
	}
}

func TestNewSourceSniffs(t *testing.T) {
	cmds := []Command{
		{Slot: 0, Op: desc.OpActivate, Bank: 1, Row: 2},
		{Slot: 9, Op: OpPowerDownEnter},
	}
	text := traceText(t, cmds)
	bin := binData(t, cmds)

	if _, ok := NewSource(bytes.NewReader(bin)).(*BinaryScanner); !ok {
		t.Error("binary input did not select the BinaryScanner")
	}
	if _, ok := NewSource(bytes.NewReader(text)).(*Scanner); !ok {
		t.Error("text input did not select the text Scanner")
	}
	for name, data := range map[string][]byte{"text": text, "binary": bin} {
		got := scanAll(t, NewSource(bytes.NewReader(data)))
		if len(got) != len(cmds) {
			t.Fatalf("%s: sniffed source produced %d commands, want %d", name, len(got), len(cmds))
		}
		for i := range cmds {
			if got[i] != cmds[i] {
				t.Errorf("%s: command %d = %+v, want %+v", name, i, got[i], cmds[i])
			}
		}
	}
	if got := scanAll(t, NewSource(strings.NewReader(""))); len(got) != 0 {
		t.Errorf("empty input produced %d commands", len(got))
	}
}

// An empty binary trace (header only) is valid and distinct from empty
// text input.
func TestBinaryEmptyTrace(t *testing.T) {
	data := binData(t, nil)
	if len(data) != binHeaderLen {
		t.Fatalf("empty trace is %d bytes, want %d (header only)", len(data), binHeaderLen)
	}
	if got := scanAll(t, NewBinaryScanner(bytes.NewReader(data))); len(got) != 0 {
		t.Errorf("empty trace produced %d commands", len(got))
	}
}

// Replay must sniff binary input and enforce the same channel-range
// semantics as text replay.
func TestReplayBinaryBankOutOfRange(t *testing.T) {
	m := model(t)
	banks := m.D.Spec.Banks()
	data := binData(t, []Command{{Slot: 0, Op: desc.OpActivate, Bank: 2 * banks, Row: 1}})
	_, err := Replay(m, bytes.NewReader(data), ReplayOptions{Channels: 2})
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimingError", err, err)
	}
	if !strings.Contains(err.Error(), "2-channel") {
		t.Errorf("error %q does not mention the channel system", err)
	}
}

// A truncated binary body surfaces as a positioned *desc.ParseError through
// Replay, like bad trace text does.
func TestReplayBinaryTruncated(t *testing.T) {
	m := model(t)
	data := binData(t, []Command{{Slot: 0, Op: desc.OpActivate, Bank: 0, Row: 1}})
	_, err := Replay(m, bytes.NewReader(data[:len(data)-1]), ReplayOptions{})
	var pe *desc.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *desc.ParseError", err, err)
	}
}

// The binary encoding is substantially denser than text — the reason to
// convert. Pin "at least 3x" so the claim in README stays honest.
func TestBinaryDensity(t *testing.T) {
	m := model(t)
	cmds := RandomClosedPage(m, 2000, 0.5, 11)
	text := len(traceText(t, cmds))
	bin := len(binData(t, cmds))
	if bin*3 > text {
		t.Errorf("binary trace %d bytes vs text %d: less than 3x denser", bin, text)
	}
}

func TestInterleaveChunked(t *testing.T) {
	// Regression guard for the sniffing reader composition: a reader
	// delivering one byte at a time must still decode correctly through
	// NewSource (exercises the sniffed-byte replay + refill logic).
	cmds := []Command{{Slot: 3, Op: desc.OpActivate, Bank: 1, Row: 2}, {Slot: 8, Op: desc.OpRead, Bank: 1, Row: 2}}
	for name, data := range map[string][]byte{"binary": binData(t, cmds), "text": traceText(t, cmds)} {
		got := scanAll(t, NewSource(iotest_oneByte{bytes.NewReader(data)}))
		if len(got) != len(cmds) {
			t.Fatalf("%s: %d commands, want %d", name, len(got), len(cmds))
		}
		for i := range cmds {
			if got[i] != cmds[i] {
				t.Errorf("%s: command %d = %+v, want %+v", name, i, got[i], cmds[i])
			}
		}
	}
}

// iotest_oneByte delivers one byte per Read, the worst-case streaming
// reader (iotest.OneByteReader without the import).
type iotest_oneByte struct{ r io.Reader }

func (o iotest_oneByte) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}
