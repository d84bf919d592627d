package ctl

// Access-trace ingestion: the text half of the .dab format plus the
// Source interface the scheduler consumes. An access trace is the
// controller-side counterpart of a command trace — timestamped read and
// write requests against a flat physical address space, with no DRAM
// commands in sight; the scheduler turns it into a legal command trace.
//
// The text format is one request per line,
//
//	<slot> <r|w> <addr>
//
// with fields separated by spaces or tabs, '#' starting a comment that
// runs to the end of the line, and blank lines ignored. <slot> is the
// request's arrival time in control-clock slots; <r|w> also accepts rd,
// wr, read and write, ASCII-case-insensitively; <addr> is a non-negative
// flat byte^W burst address, decimal or 0x-prefixed hex.
//
//	# a row hit pair, then a write far away
//	0   r 0x2400
//	12  r 0x2401
//	400 w 0x91f00
//
// The equivalent binary encoding lives in binary.go; NewAccessSource
// sniffs the two apart from the first byte, exactly like trace.NewSource
// does for command traces.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"drampower/internal/desc"
)

// Request is one access-trace entry: a read or write of one burst at a
// flat physical address, arriving at a control-clock slot. Arrival order
// is FIFO — the scheduler requires non-decreasing slots.
type Request struct {
	Slot  int64
	Write bool
	Addr  int64
}

// String renders the request in the text format (without the newline).
func (r Request) String() string {
	op := "r"
	if r.Write {
		op = "w"
	}
	return fmt.Sprintf("%d %s %#x", r.Slot, op, r.Addr)
}

// parseErr returns a positioned access-input error (a *desc.ParseError
// of Kind "access"): Line/Col for text, the request ordinal (Col zero)
// for binary.
func parseErr(line, col int, format string, args ...any) error {
	return &desc.ParseError{Kind: "access", Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// streamErr wraps a reader failure at the given line or ordinal in a
// positioned access-input error that unwraps to it.
func streamErr(line int, err error) error {
	return &desc.ParseError{Kind: "access", Line: line, Msg: err.Error(), Err: err}
}

// Source is a stream of access requests: the common face of the text
// Scanner, the BinaryScanner and in-memory slices, and what the
// scheduler consumes.
type Source interface {
	Scan() bool
	Request() Request
	Err() error
}

// maxLineBytes bounds a single access-trace line.
const maxLineBytes = 1 << 16

// Scanner reads an access trace from an io.Reader one line at a time,
// with the same allocation discipline as the command-trace scanner:
// lines tokenize in place on the bufio buffer, integers and mnemonics
// decode without forming strings, and only error paths allocate.
type Scanner struct {
	s    *bufio.Scanner
	line int
	req  Request
	err  error
}

// NewScanner returns a Scanner reading access-trace text from r.
func NewScanner(r io.Reader) *Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 4096), maxLineBytes)
	return &Scanner{s: s}
}

// Scan advances to the next request, skipping blank and comment lines.
// It returns false at end of input or on the first error; Err
// disambiguates the two.
func (sc *Scanner) Scan() bool {
	if sc.err != nil {
		return false
	}
	for sc.s.Scan() {
		sc.line++
		req, ok, err := parseAccessLine(sc.s.Bytes(), sc.line)
		if err != nil {
			// bufio.Scanner hands out the unterminated tail of a failed
			// read as a last line: if the stream fails right after the bad
			// line, the cut (a body cap, a timeout) is the error to report.
			if !sc.s.Scan() && sc.s.Err() != nil {
				err = streamErr(sc.line, sc.s.Err())
			}
			sc.err = err
			return false
		}
		if ok {
			sc.req = req
			return true
		}
	}
	if err := sc.s.Err(); err != nil {
		sc.err = streamErr(sc.line+1, err)
	}
	return false
}

// Request returns the request of the last successful Scan.
func (sc *Scanner) Request() Request { return sc.req }

// Err returns the first error encountered (a *desc.ParseError), or nil
// after a clean end of input.
func (sc *Scanner) Err() error { return sc.err }

// Line returns the 1-based number of the last line read.
func (sc *Scanner) Line() int { return sc.line }

// parseAccessLine decodes one access-trace line. ok is false for blank
// and comment-only lines.
func parseAccessLine(b []byte, line int) (req Request, ok bool, err error) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] == '#' {
		return Request{}, false, nil
	}
	slot, j, numOK := parseUint(b, i)
	if !numOK {
		return Request{}, false, parseErr(line, i+1, "bad slot %q (want non-negative integer)", field(b, i))
	}
	req.Slot = slot

	i = skipSpace(b, j)
	if i >= len(b) || b[i] == '#' {
		return Request{}, false, parseErr(line, 0, "missing operation")
	}
	j = endOfField(b, i)
	w, opOK := parseAccessOp(b[i:j])
	if !opOK {
		return Request{}, false, parseErr(line, i+1, "unknown operation %q (want r or w)", field(b, i))
	}
	req.Write = w

	i = skipSpace(b, j)
	if i >= len(b) || b[i] == '#' {
		return Request{}, false, parseErr(line, 0, "missing address")
	}
	addr, j, addrOK := parseAddr(b, i)
	if !addrOK {
		return Request{}, false, parseErr(line, i+1, "bad address %q (want non-negative integer, decimal or 0x hex)", field(b, i))
	}
	req.Addr = addr

	i = skipSpace(b, j)
	if i < len(b) && b[i] != '#' {
		return Request{}, false, parseErr(line, i+1, "trailing field %q (want <slot> <r|w> <addr>)", field(b, i))
	}
	return req, true, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// skipSpace returns the index of the first non-space byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// endOfField returns the index just past the field starting at i.
func endOfField(b []byte, i int) int {
	for i < len(b) && !isSpace(b[i]) && b[i] != '#' {
		i++
	}
	return i
}

// field extracts the field starting at i for error messages (this path
// may allocate; the accept path never calls it).
func field(b []byte, i int) string { return string(b[i:endOfField(b, i)]) }

// parseUint decodes a non-negative decimal integer field starting at i
// without allocating. It returns the value, the index just past the
// field, and whether the field was well formed and ended at a field
// boundary.
func parseUint(b []byte, i int) (int64, int, bool) {
	j := i
	start := j
	var v int64
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		// Bound before the multiply: v*10 can wrap past negative back
		// into the positive range, so a post-hoc v < 0 check is not
		// enough.
		if v > ((1<<63-1)-9)/10 {
			return 0, j, false // overflow
		}
		v = v*10 + int64(b[j]-'0')
		j++
	}
	if j == start {
		return 0, j, false
	}
	if j < len(b) && !isSpace(b[j]) && b[j] != '#' {
		return 0, j, false
	}
	return v, j, true
}

// parseAddr decodes an address field: decimal, or hex behind 0x/0X.
func parseAddr(b []byte, i int) (int64, int, bool) {
	if i+1 < len(b) && b[i] == '0' && (b[i+1] == 'x' || b[i+1] == 'X') {
		j := i + 2
		start := j
		var v int64
		for j < len(b) {
			c := b[j]
			var d int64
			switch {
			case c >= '0' && c <= '9':
				d = int64(c - '0')
			case c >= 'a' && c <= 'f':
				d = int64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = int64(c-'A') + 10
			default:
				if j == start || (!isSpace(c) && c != '#') {
					return 0, j, false
				}
				return v, j, true
			}
			if v >= 1<<59 {
				return 0, j, false // v<<4 would overflow int64
			}
			v = v<<4 | d
			j++
		}
		if j == start {
			return 0, j, false
		}
		return v, j, true
	}
	return parseUint(b, i)
}

// parseAccessOp matches a read/write mnemonic ASCII-case-insensitively.
func parseAccessOp(b []byte) (write, ok bool) {
	switch {
	case eqFold(b, "r"), eqFold(b, "rd"), eqFold(b, "read"):
		return false, true
	case eqFold(b, "w"), eqFold(b, "wr"), eqFold(b, "write"):
		return true, true
	}
	return false, false
}

// eqFold reports whether b equals the lower-case string s under ASCII
// case folding, without allocating.
func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// AppendRequest appends the access-trace text line for r, including the
// trailing newline, to dst and returns the extended slice. Addresses
// render in hex (the canonical form the scanner round-trips).
func AppendRequest(dst []byte, r Request) []byte {
	dst = strconv.AppendInt(dst, r.Slot, 10)
	if r.Write {
		dst = append(dst, " w 0x"...)
	} else {
		dst = append(dst, " r 0x"...)
	}
	dst = strconv.AppendInt(dst, r.Addr, 16)
	return append(dst, '\n')
}

// WriteAccessTrace renders requests in the access-trace text format, one
// line per request, buffered. The output round-trips through NewScanner.
func WriteAccessTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range reqs {
		buf = AppendRequest(buf[:0], reqs[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sliceSource adapts an in-memory request slice to the Source interface.
type sliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource returns a Source over an in-memory request slice.
func NewSliceSource(reqs []Request) Source { return &sliceSource{reqs: reqs} }

func (s *sliceSource) Scan() bool {
	if s.i >= len(s.reqs) {
		return false
	}
	s.i++
	return true
}

func (s *sliceSource) Request() Request { return s.reqs[s.i-1] }

func (s *sliceSource) Err() error { return nil }

// Len reports the requests remaining — the scheduler uses it to pre-size
// its per-channel buffers when the source is an in-memory slice.
func (s *sliceSource) Len() int { return len(s.reqs) - s.i }
