// Package recio is the text-record grammar shared by the command-trace
// and access-trace formats: one record per line, fields separated by
// spaces, tabs or CRs, '#' starting a comment that runs to the end of the
// line, blank lines ignored and a 64 KiB cap on a line. It tokenizes in
// place on the line buffer and never allocates on the accept path; the
// record packages keep only their mnemonics, address forms and binary
// decoders.
package recio

import (
	"bufio"
	"bytes"
	"io"

	"drampower/internal/desc"
)

// maxLineBytes bounds a single record line; a well-formed line is a few
// dozen bytes, so the cap only guards against pathological input.
const maxLineBytes = 1 << 16

// IsSpace reports whether c separates fields.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// AtEnd reports whether no field starts at i: the line ended or a
// comment begins.
func AtEnd(b []byte, i int) bool { return i >= len(b) || b[i] == '#' }

// SkipSpace returns the index of the first non-space byte at or after i.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && IsSpace(b[i]) {
		i++
	}
	return i
}

// EndOfField returns the index just past the field starting at i.
func EndOfField(b []byte, i int) int {
	for i < len(b) && !IsSpace(b[i]) && b[i] != '#' {
		i++
	}
	return i
}

// Field extracts the field starting at i for error messages (this path
// may allocate; the accept path never calls it).
func Field(b []byte, i int) string { return string(b[i:EndOfField(b, i)]) }

// EqFold reports whether b equals the lower-case string s under ASCII
// case folding, without allocating.
func EqFold(b []byte, s string) bool {
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

// ParseInt decodes a decimal integer field starting at i without
// allocating; signed admits a leading '+' or '-'. It returns the value,
// the index just past the digits, and whether the field was a
// well-formed integer ending at a field boundary.
func ParseInt(b []byte, i int, signed bool) (int64, int, bool) {
	j := i
	neg := false
	if signed && j < len(b) && (b[j] == '-' || b[j] == '+') {
		neg = b[j] == '-'
		j++
	}
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
	if j < len(b) && !IsSpace(b[j]) && b[j] != '#' {
		return 0, j, false
	}
	if neg {
		v = -v
	}
	return v, j, true
}

// Lines reads record lines from an io.Reader through a fixed buffer,
// numbering every line and skipping blank and comment-only ones. Stream
// failures surface as positioned *desc.ParseError values of its Kind
// that unwrap to the reader's error.
type Lines struct {
	s    *bufio.Scanner
	kind string
	line int
}

// NewLines returns a Lines reading r, whose errors carry Kind kind. It is
// a value so a scanner can embed it without another allocation.
func NewLines(r io.Reader, kind string) Lines {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 4096), maxLineBytes)
	return Lines{s: s, kind: kind}
}

// Next advances to the next line holding a record and returns it with
// the index of its first field. ok is false at end of input or on a read
// failure; Err disambiguates the two.
func (l *Lines) Next() (b []byte, i int, ok bool) {
	for l.s.Scan() {
		l.line++
		b = l.s.Bytes()
		if i = SkipSpace(b, 0); !AtEnd(b, i) {
			return b, i, true
		}
	}
	return nil, 0, false
}

// Line returns the 1-based number of the last line read.
func (l *Lines) Line() int { return l.line }

// Err returns the read failure that ended the input, positioned at the
// line it cut short, or nil after a clean end of input.
func (l *Lines) Err() error {
	if err := l.s.Err(); err != nil {
		return l.streamErr(l.line+1, err)
	}
	return nil
}

// Reject returns the error to report for the current line, which failed
// to parse with err. bufio.Scanner hands out the unterminated tail of a
// failed read as a last line: if the stream fails right after the bad
// line, the cut (a body cap, a timeout) is the error to report.
func (l *Lines) Reject(err error) error {
	if !l.s.Scan() && l.s.Err() != nil {
		return l.streamErr(l.line, l.s.Err())
	}
	return err
}

func (l *Lines) streamErr(line int, err error) error {
	return &desc.ParseError{Kind: l.kind, Line: line, Msg: err.Error(), Err: err}
}

// Sniff reads the first byte of r to tell a binary encoding, whose
// streams start with magic, from text. rest replays that byte ahead of
// the remainder of r. When nothing could be read, binary is false and
// rest returns the read's error, so an empty stream reads as empty text
// and a failure surfaces through the text scanner's error path at line 1.
func Sniff(r io.Reader, magic byte) (binary bool, rest io.Reader) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return false, errReader{err}
	}
	return first[0] == magic, io.MultiReader(bytes.NewReader(first[:]), r)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
