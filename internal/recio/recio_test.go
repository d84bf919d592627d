package recio_test

import (
	"errors"
	"testing"
	"testing/iotest"

	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/trace"
)

// A read failure before the first byte is deferred by the format sniff to
// the text scanner, which reports it positioned at line 1 and unwrapping
// to the reader's error, for both record formats.
func TestSniffReadFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		kind string
		src  interface {
			Scan() bool
			Err() error
		}
	}{
		{"trace", trace.NewSource(iotest.ErrReader(boom))},
		{"access", ctl.NewAccessSource(iotest.ErrReader(boom))},
	} {
		if tc.src.Scan() {
			t.Fatalf("%s: Scan succeeded on a failing reader", tc.kind)
		}
		err := tc.src.Err()
		var pe *desc.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %v (%T) is not a *desc.ParseError", tc.kind, err, err)
		}
		if pe.Kind != tc.kind || pe.Line != 1 || pe.Col != 0 {
			t.Errorf("%s: got kind %q line %d col %d, want %q line 1 col 0", tc.kind, pe.Kind, pe.Line, pe.Col, tc.kind)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: errors.Is(%v, boom) = false", tc.kind, err)
		}
		if want := tc.kind + ": line 1: boom"; err.Error() != want {
			t.Errorf("%s: error %q, want %q", tc.kind, err, want)
		}
	}
}
