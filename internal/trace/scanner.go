package trace

// Streaming trace ingestion: a line-oriented text format for command
// traces and an allocation-free Scanner over any io.Reader, so
// multi-gigabyte traces stream through a fixed buffer instead of being
// materialized as a []Command.
//
// The format is one command per line,
//
//	<slot> <op> [<bank> [<row>]]
//
// with fields separated by spaces or tabs, '#' starting a comment that
// runs to the end of the line, and blank lines ignored. <op> is a
// pattern-language mnemonic (nop, act, pre, rd, wrt, ref), one of the
// aliases desc.ParseOp accepts (activate, precharge, read, write, wr,
// refresh), or a power-state command (pde, pdx, sre, srx — power-down and
// self-refresh entry/exit), matched ASCII-case-insensitively. <bank> and
// <row> default to 0 when omitted (refresh, nop and power-state commands
// usually carry neither).
//
//	# one closed-page access on bank 2, then a power-down window
//	0   act 2 17
//	11  rd  2 17
//	28  pre 2 17
//	100 ref
//	200 pde
//	800 pdx

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"drampower/internal/desc"
)

// parseErr returns a positioned trace-input error (a *desc.ParseError
// of Kind "trace"): Line is 1-based, Col the 1-based byte column of the
// offending field, 0 for whole-line problems.
func parseErr(line, col int, format string, args ...any) error {
	return &desc.ParseError{Kind: "trace", Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// streamErr wraps a reader failure at the given line in a positioned
// trace-input error that unwraps to it.
func streamErr(line int, err error) error {
	return &desc.ParseError{Kind: "trace", Line: line, Msg: err.Error(), Err: err}
}

// maxLineBytes bounds a single trace line; a well-formed line is a few
// dozen bytes, so the cap only guards against pathological input.
const maxLineBytes = 1 << 16

// Scanner reads a command trace from an io.Reader one line at a time.
// After construction it performs no per-line heap allocations: lines are
// tokenized in place on the underlying bufio buffer and integers and
// mnemonics are decoded without forming strings (no strings.Split, no
// strconv on the hot path). Use it directly with Simulator.RunStream or
// Replayer.ReplayScanner:
//
//	sc := trace.NewScanner(f)
//	for sc.Scan() {
//		cmd := sc.Command()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	s    *bufio.Scanner
	line int
	cmd  Command
	err  error
}

// NewScanner returns a Scanner reading trace text from r.
func NewScanner(r io.Reader) *Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 4096), maxLineBytes)
	return &Scanner{s: s}
}

// Scan advances to the next command, skipping blank and comment lines.
// It returns false at end of input or on the first error; Err
// disambiguates the two.
func (sc *Scanner) Scan() bool {
	if sc.err != nil {
		return false
	}
	for sc.s.Scan() {
		sc.line++
		cmd, ok, err := parseLine(sc.s.Bytes(), sc.line)
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
			sc.cmd = cmd
			return true
		}
	}
	if err := sc.s.Err(); err != nil {
		sc.err = streamErr(sc.line+1, err)
	}
	return false
}

// Command returns the command of the last successful Scan.
func (sc *Scanner) Command() Command { return sc.cmd }

// Err returns the first error encountered (a *desc.ParseError), or nil
// after a clean end of input.
func (sc *Scanner) Err() error { return sc.err }

// Line returns the 1-based number of the last line read.
func (sc *Scanner) Line() int { return sc.line }

// parseLine decodes one trace line. ok is false for blank and
// comment-only lines.
func parseLine(b []byte, line int) (cmd Command, ok bool, err error) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] == '#' {
		return Command{}, false, nil
	}
	slot, j, numOK := parseInt(b, i)
	if !numOK {
		return Command{}, false, parseErr(line, i+1, "bad slot %q (want integer)", field(b, i))
	}
	if slot < 0 {
		return Command{}, false, parseErr(line, i+1, "negative slot %d", slot)
	}
	cmd.Slot = slot

	i = skipSpace(b, j)
	if i >= len(b) || b[i] == '#' {
		return Command{}, false, parseErr(line, 0, "missing operation")
	}
	j = endOfField(b, i)
	op, opOK := parseOpBytes(b[i:j])
	if !opOK {
		return Command{}, false, parseErr(line, i+1, "unknown operation %q (want nop, act, pre, rd, wrt, ref, pde, pdx, sre or srx)", field(b, i))
	}
	cmd.Op = op

	i = skipSpace(b, j)
	if i < len(b) && b[i] != '#' {
		bank, k, bankOK := parseInt(b, i)
		if !bankOK {
			return Command{}, false, parseErr(line, i+1, "bad bank %q (want integer)", field(b, i))
		}
		cmd.Bank = int(bank)
		i = skipSpace(b, k)
	}
	if i < len(b) && b[i] != '#' {
		row, k, rowOK := parseInt(b, i)
		if !rowOK {
			return Command{}, false, parseErr(line, i+1, "bad row %q (want integer)", field(b, i))
		}
		cmd.Row = int(row)
		i = skipSpace(b, k)
	}
	if i < len(b) && b[i] != '#' {
		return Command{}, false, parseErr(line, i+1, "trailing field %q (want <slot> <op> [<bank> [<row>]])", field(b, i))
	}
	return cmd, true, nil
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

// parseInt decodes a decimal integer field starting at i without
// allocating. It returns the value, the index just past the field, and
// whether the field was a well-formed integer ending at a field boundary.
func parseInt(b []byte, i int) (int64, int, bool) {
	j := i
	neg := false
	if j < len(b) && (b[j] == '-' || b[j] == '+') {
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
	if j < len(b) && !isSpace(b[j]) && b[j] != '#' {
		return 0, j, false
	}
	if neg {
		v = -v
	}
	return v, j, true
}

// parseOpBytes matches an operation mnemonic ASCII-case-insensitively
// without allocating. The accepted set matches desc.ParseOp.
func parseOpBytes(b []byte) (desc.Op, bool) {
	switch {
	case eqFold(b, "nop"):
		return desc.OpNop, true
	case eqFold(b, "act"), eqFold(b, "activate"):
		return desc.OpActivate, true
	case eqFold(b, "pre"), eqFold(b, "precharge"):
		return desc.OpPrecharge, true
	case eqFold(b, "rd"), eqFold(b, "read"):
		return desc.OpRead, true
	case eqFold(b, "wrt"), eqFold(b, "wr"), eqFold(b, "write"):
		return desc.OpWrite, true
	case eqFold(b, "ref"), eqFold(b, "refresh"):
		return desc.OpRefresh, true
	case eqFold(b, "pde"):
		return OpPowerDownEnter, true
	case eqFold(b, "pdx"):
		return OpPowerDownExit, true
	case eqFold(b, "sre"):
		return OpSelfRefreshEnter, true
	case eqFold(b, "srx"):
		return OpSelfRefreshExit, true
	}
	return 0, false
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

// WriteTrace renders commands in the trace text format, one line per
// command, buffered. The output round-trips through NewScanner.
func WriteTrace(w io.Writer, cmds []Command) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range cmds {
		buf = AppendCommand(buf[:0], cmds[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendCommand appends the trace-format line for c, including the
// trailing newline, to dst and returns the extended slice.
func AppendCommand(dst []byte, c Command) []byte {
	dst = strconv.AppendInt(dst, c.Slot, 10)
	dst = append(dst, ' ')
	dst = append(dst, OpName(c.Op)...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(c.Bank), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(c.Row), 10)
	return append(dst, '\n')
}
