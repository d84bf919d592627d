package ctl

// The binary half of the access-trace format (.dab), mirroring the dtb
// command-trace encoding in internal/trace/binary.go: a 5-byte header
// then one variable-length record per request.
//
//	magic   0xDA 'D' 'A' 'B' 0x01
//	record  flags byte ++ zigzag-varint slot delta ++ zigzag-varint addr delta
//
// The flags byte carries the operation in bit 0 (0 = read, 1 = write);
// bits 1..7 are reserved and must be zero. Slot and address are both
// delta-encoded against the previous record (zigzag, so regressions and
// strides in either direction stay short); the first record's deltas are
// against zero. The 0xDA first byte cannot begin a text access trace
// (which starts with whitespace, '#' or a digit) or a dtb stream (0xD7),
// so NewAccessSource sniffs the format from one byte.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"drampower/internal/desc"
)

// accessMagic is the .dab header: sentinel byte, format name, version.
var accessMagic = [5]byte{0xDA, 'D', 'A', 'B', 0x01}

// AccessBinaryMagicByte is the first byte of every .dab stream, used for
// format sniffing.
const AccessBinaryMagicByte = 0xDA

// accessFlagWrite is bit 0 of the record flags byte.
const accessFlagWrite = 0x01

// accessFlagReserved masks the bits that must be zero in this version.
const accessFlagReserved = ^byte(accessFlagWrite)

// unzigzag inverts the zigzag fold of binary.AppendVarint: 0, 1, 2, 3
// -> 0, -1, 1, -2.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BinaryWriter encodes requests into the .dab format. The header is
// written lazily on the first request (or by Flush for an empty trace).
type BinaryWriter struct {
	w        *bufio.Writer
	buf      []byte
	lastSlot int64
	lastAddr int64
	started  bool
	err      error
}

// NewBinaryWriter returns a BinaryWriter emitting to w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 24)}
}

func (bw *BinaryWriter) start() error {
	if bw.started {
		return nil
	}
	bw.started = true
	_, err := bw.w.Write(accessMagic[:])
	return err
}

// Write encodes one request. Requests may arrive in any slot/address
// order — deltas are signed — though the scheduler itself wants
// non-decreasing slots.
func (bw *BinaryWriter) Write(r Request) error {
	if bw.err != nil {
		return bw.err
	}
	if err := bw.start(); err != nil {
		bw.err = err
		return err
	}
	if r.Slot < 0 || r.Addr < 0 {
		bw.err = fmt.Errorf("ctl: negative slot or address in request %v", r)
		return bw.err
	}
	flags := byte(0)
	if r.Write {
		flags = accessFlagWrite
	}
	b := append(bw.buf[:0], flags)
	b = binary.AppendVarint(b, r.Slot-bw.lastSlot)
	b = binary.AppendVarint(b, r.Addr-bw.lastAddr)
	bw.buf = b
	bw.lastSlot, bw.lastAddr = r.Slot, r.Addr
	if _, err := bw.w.Write(b); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// Flush writes any buffered output (and the header, if no request was
// ever written) to the underlying writer.
func (bw *BinaryWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if err := bw.start(); err != nil {
		bw.err = err
		return err
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// WriteBinaryAccessTrace encodes requests as a complete .dab stream.
func WriteBinaryAccessTrace(w io.Writer, reqs []Request) error {
	bw := NewBinaryWriter(w)
	for i := range reqs {
		if err := bw.Write(reqs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryScanner decodes a .dab stream. Errors are positioned by request
// ordinal (reported in desc.ParseError.Line, Col zero), matching the text
// scanner's contract closely enough that callers handle both uniformly.
type BinaryScanner struct {
	r        *bufio.Reader
	req      Request
	lastSlot int64
	lastAddr int64
	n        int // requests decoded so far
	started  bool
	err      error
}

// NewBinaryScanner returns a BinaryScanner reading a .dab stream from r.
// The header is validated on the first Scan.
func NewBinaryScanner(r io.Reader) *BinaryScanner {
	return &BinaryScanner{r: bufio.NewReader(r)}
}

func (bs *BinaryScanner) fail(msg string, err error) bool {
	bs.err = &desc.ParseError{Kind: "access", Line: bs.n + 1, Msg: msg, Err: err}
	return false
}

// Scan advances to the next request; false at end of stream or error.
func (bs *BinaryScanner) Scan() bool {
	if bs.err != nil {
		return false
	}
	if !bs.started {
		bs.started = true
		var hdr [5]byte
		if _, err := io.ReadFull(bs.r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return bs.fail("truncated access-trace header", io.ErrUnexpectedEOF)
			}
			return bs.fail(err.Error(), err)
		}
		if hdr != accessMagic {
			if hdr[0] != AccessBinaryMagicByte || hdr[1] != 'D' || hdr[2] != 'A' || hdr[3] != 'B' {
				return bs.fail(fmt.Sprintf("bad access-trace magic % x", hdr[:4]), nil)
			}
			return bs.fail(fmt.Sprintf("unsupported access-trace version %d", hdr[4]), nil)
		}
	}
	flags, err := bs.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return false // clean end of stream
		}
		return bs.fail(err.Error(), err)
	}
	if flags&accessFlagReserved != 0 {
		return bs.fail(fmt.Sprintf("reserved flag bits %#02x set", flags&accessFlagReserved), nil)
	}
	dSlot, ok := bs.varint()
	if !ok {
		return false
	}
	dAddr, ok := bs.varint()
	if !ok {
		return false
	}
	slot := bs.lastSlot + dSlot
	addr := bs.lastAddr + dAddr
	if slot < 0 {
		return bs.fail(fmt.Sprintf("negative slot %d", slot), nil)
	}
	if addr < 0 {
		return bs.fail(fmt.Sprintf("negative address %d", addr), nil)
	}
	bs.lastSlot, bs.lastAddr = slot, addr
	bs.req = Request{Slot: slot, Write: flags&accessFlagWrite != 0, Addr: addr}
	bs.n++
	return true
}

// varint decodes one zigzag varint, recording a positioned error on
// truncation or overlong encodings.
func (bs *BinaryScanner) varint() (int64, bool) {
	var u uint64
	var shift uint
	for {
		c, err := bs.r.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				bs.fail("truncated request record", io.ErrUnexpectedEOF)
				return 0, false
			}
			bs.fail(err.Error(), err)
			return 0, false
		}
		if shift == 63 && c > 1 {
			bs.fail("varint overflows 64 bits", nil)
			return 0, false
		}
		u |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return unzigzag(u), true
		}
		shift += 7
		if shift > 63 {
			bs.fail("varint longer than 10 bytes", nil)
			return 0, false
		}
	}
}

// Request returns the request of the last successful Scan.
func (bs *BinaryScanner) Request() Request { return bs.req }

// Err returns the first error encountered (a *desc.ParseError), or nil
// after a clean end of stream.
func (bs *BinaryScanner) Err() error { return bs.err }

// errSource is a Source that failed before producing any request.
type errSource struct{ err error }

func (e *errSource) Scan() bool       { return false }
func (e *errSource) Request() Request { return Request{} }
func (e *errSource) Err() error       { return e.err }

// NewAccessSource sniffs the access-trace format from the first byte of
// r and returns the matching scanner: 0xDA selects the .dab binary
// decoder, anything else the text scanner. An empty stream is a valid
// empty text trace.
func NewAccessSource(r io.Reader) Source {
	var first [1]byte
	n, err := r.Read(first[:])
	for n == 0 && err == nil {
		n, err = r.Read(first[:])
	}
	if n == 0 {
		if err == nil || errors.Is(err, io.EOF) {
			return NewScanner(r)
		}
		return &errSource{err: streamErr(1, err)}
	}
	rest := io.MultiReader(bytes.NewReader(first[:]), r) // replay the sniffed byte
	if first[0] == AccessBinaryMagicByte {
		return NewBinaryScanner(rest)
	}
	return NewScanner(rest)
}
