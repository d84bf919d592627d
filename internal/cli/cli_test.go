package cli

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"drampower/internal/ctl"
	"drampower/internal/desc"
)

// capture intercepts exit and stderr around fn.
func capture(fn func()) (out string, code int) {
	var b strings.Builder
	code = -1
	oldExit, oldErr := exit, stderr
	exit = func(c int) { code = c }
	stderr = &b
	defer func() { exit, stderr = oldExit, oldErr }()
	fn()
	return b.String(), code
}

func TestFatalExitsNonZero(t *testing.T) {
	out, code := capture(func() { Fatal("tool", errors.New("boom")) })
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if out != "tool: boom\n" {
		t.Fatalf("stderr = %q", out)
	}
}

func TestFatalInputPrefixesPositionedErrors(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &desc.ParseError{Line: 3, Col: 7, Msg: "bad token"})
	out, code := capture(func() { FatalInput("tool", "dev.dram", err) })
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.HasPrefix(out, "tool: dev.dram: ") || !strings.Contains(out, "line 3") {
		t.Fatalf("stderr = %q, want input-prefixed positioned diagnostic", out)
	}

	terr := &desc.ParseError{Kind: "trace", Line: 9, Col: 2, Msg: "bad bank"}
	out, _ = capture(func() { FatalInput("tool", "t.txt", terr) })
	if !strings.HasPrefix(out, "tool: t.txt: ") || !strings.Contains(out, "line 9") {
		t.Fatalf("stderr = %q", out)
	}
}

// An access-trace error is positioned like the others, so dramctl names
// the offending file just as dramtrace and drampower do.
func TestFatalInputPrefixesAccessErrors(t *testing.T) {
	src := ctl.NewAccessSource(strings.NewReader("0 r 0x10\n5 Q 0x20\n"))
	for src.Scan() {
	}
	if src.Err() == nil {
		t.Fatal("malformed access trace scanned cleanly")
	}
	out, code := capture(func() { FatalInput("dramctl", "x.acc", src.Err()) })
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	want := "dramctl: x.acc: access: line 2, col 3: "
	if !strings.HasPrefix(out, want) {
		t.Fatalf("stderr = %q, want prefix %q", out, want)
	}
}

func TestFatalInputSkipsPrefixForPlainErrors(t *testing.T) {
	out, _ := capture(func() { FatalInput("tool", "dev.dram", errors.New("no such file")) })
	if out != "tool: no such file\n" {
		t.Fatalf("stderr = %q (plain errors usually already carry the path)", out)
	}
}
