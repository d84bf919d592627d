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
	"drampower/internal/recio"
)

// parseErr returns a positioned trace-input error (a *desc.ParseError
// of Kind "trace"): Line is 1-based, Col the 1-based byte column of the
// offending field, 0 for whole-line problems.
func parseErr(line, col int, format string, args ...any) error {
	return &desc.ParseError{Kind: "trace", Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Scanner reads a command trace from an io.Reader one line at a time.
// After construction it performs no per-line heap allocations: lines are
// tokenized in place on the underlying bufio buffer and integers and
// mnemonics are decoded without forming strings (no strings.Split, no
// strconv on the hot path). Use it directly with Simulator.RunStream or
// Replayer.ReplaySource:
//
//	sc := trace.NewScanner(f)
//	for sc.Scan() {
//		cmd := sc.Command()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	in  recio.Lines
	cmd Command
	err error
}

// NewScanner returns a Scanner reading trace text from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{in: recio.NewLines(r, "trace")}
}

// Scan advances to the next command, skipping blank and comment lines.
// It returns false at end of input or on the first error; Err
// disambiguates the two.
func (sc *Scanner) Scan() bool {
	if sc.err != nil {
		return false
	}
	b, i, ok := sc.in.Next()
	if !ok {
		sc.err = sc.in.Err()
		return false
	}
	cmd, err := parseLine(b, i, sc.in.Line())
	if err != nil {
		sc.err = sc.in.Reject(err)
		return false
	}
	sc.cmd = cmd
	return true
}

// Command returns the command of the last successful Scan.
func (sc *Scanner) Command() Command { return sc.cmd }

// Err returns the first error encountered (a *desc.ParseError), or nil
// after a clean end of input.
func (sc *Scanner) Err() error { return sc.err }

// parseLine decodes the trace line b, whose first field starts at i.
func parseLine(b []byte, i, line int) (cmd Command, err error) {
	slot, j, numOK := recio.ParseInt(b, i, true)
	if !numOK {
		return Command{}, parseErr(line, i+1, "bad slot %q (want integer)", recio.Field(b, i))
	}
	if slot < 0 {
		return Command{}, parseErr(line, i+1, "negative slot %d", slot)
	}
	cmd.Slot = slot

	i = recio.SkipSpace(b, j)
	if recio.AtEnd(b, i) {
		return Command{}, parseErr(line, 0, "missing operation")
	}
	j = recio.EndOfField(b, i)
	op, opOK := parseOpBytes(b[i:j])
	if !opOK {
		return Command{}, parseErr(line, i+1, "unknown operation %q (want nop, act, pre, rd, wrt, ref, pde, pdx, sre or srx)", recio.Field(b, i))
	}
	cmd.Op = op

	i = recio.SkipSpace(b, j)
	if !recio.AtEnd(b, i) {
		bank, k, bankOK := recio.ParseInt(b, i, true)
		if !bankOK {
			return Command{}, parseErr(line, i+1, "bad bank %q (want integer)", recio.Field(b, i))
		}
		cmd.Bank = int(bank)
		i = recio.SkipSpace(b, k)
	}
	if !recio.AtEnd(b, i) {
		row, k, rowOK := recio.ParseInt(b, i, true)
		if !rowOK {
			return Command{}, parseErr(line, i+1, "bad row %q (want integer)", recio.Field(b, i))
		}
		cmd.Row = int(row)
		i = recio.SkipSpace(b, k)
	}
	if !recio.AtEnd(b, i) {
		return Command{}, parseErr(line, i+1, "trailing field %q (want <slot> <op> [<bank> [<row>]])", recio.Field(b, i))
	}
	return cmd, nil
}

// parseOpBytes matches an operation mnemonic ASCII-case-insensitively
// without allocating. The accepted set matches desc.ParseOp.
func parseOpBytes(b []byte) (desc.Op, bool) {
	switch {
	case recio.EqFold(b, "nop"):
		return desc.OpNop, true
	case recio.EqFold(b, "act"), recio.EqFold(b, "activate"):
		return desc.OpActivate, true
	case recio.EqFold(b, "pre"), recio.EqFold(b, "precharge"):
		return desc.OpPrecharge, true
	case recio.EqFold(b, "rd"), recio.EqFold(b, "read"):
		return desc.OpRead, true
	case recio.EqFold(b, "wrt"), recio.EqFold(b, "wr"), recio.EqFold(b, "write"):
		return desc.OpWrite, true
	case recio.EqFold(b, "ref"), recio.EqFold(b, "refresh"):
		return desc.OpRefresh, true
	case recio.EqFold(b, "pde"):
		return OpPowerDownEnter, true
	case recio.EqFold(b, "pdx"):
		return OpPowerDownExit, true
	case recio.EqFold(b, "sre"):
		return OpSelfRefreshEnter, true
	case recio.EqFold(b, "srx"):
		return OpSelfRefreshExit, true
	}
	return 0, false
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
