package desc

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

func lexString(t *testing.T, src string) []line {
	t.Helper()
	lines, err := lex(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestLexBasics(t *testing.T) {
	lines := lexString(t, "A b=1 c\n\n# comment only\nD\n")
	if len(lines) != 2 {
		t.Fatalf("lines: got %d, want 2", len(lines))
	}
	if lines[0].num != 1 || lines[1].num != 4 {
		t.Errorf("line numbers: %d, %d", lines[0].num, lines[1].num)
	}
	f := lines[0].fields
	if len(f) != 3 || !f[0].bare() || f[0].value != "A" {
		t.Fatalf("fields: %+v", f)
	}
	if f[1].key != "b" || f[1].value != "1" {
		t.Errorf("attr: %+v", f[1])
	}
	if !f[2].bare() || f[2].value != "c" {
		t.Errorf("bare: %+v", f[2])
	}
}

func TestLexEqualsNormalization(t *testing.T) {
	cases := []struct {
		src  string
		key  string
		val  string
		rest int // additional fields after the head + attr
	}{
		{"X blocks = A1 P1", "blocks", "A1", 1},
		{"X blocks =A1 P1", "blocks", "A1", 1},
		{"X blocks= A1 P1", "blocks", "A1", 1},
		{"X blocks=A1 P1", "blocks", "A1", 1},
		{"X loop= act nop", "loop", "act", 1},
	}
	for _, c := range cases {
		lines := lexString(t, c.src)
		f := lines[0].fields
		if len(f) != 2+c.rest {
			t.Errorf("%q: fields %+v", c.src, f)
			continue
		}
		if f[1].key != c.key || f[1].value != c.val {
			t.Errorf("%q: attr %+v, want %s=%s", c.src, f[1], c.key, c.val)
		}
	}
}

func TestLexTrailingEquals(t *testing.T) {
	lines := lexString(t, "X key=\n")
	f := lines[0].fields
	if len(f) != 2 || f[1].key != "key" || f[1].value != "" {
		t.Errorf("trailing equals: %+v", f)
	}
}

func TestLexDanglingEquals(t *testing.T) {
	if _, err := lex(strings.NewReader("= oops\n")); err == nil {
		t.Error("expected error for leading '='")
	}
	if _, err := lex(strings.NewReader("a=1 = b\n")); err == nil {
		t.Error("expected error for '=' after an attribute")
	}
}

func TestLexComments(t *testing.T) {
	lines := lexString(t, "A b=1 # trailing\nC // slashes\n#only\n//only\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	if len(lines[0].fields) != 2 {
		t.Errorf("comment not stripped: %+v", lines[0].fields)
	}
}

func TestLexLongLine(t *testing.T) {
	// The scanner buffer must handle long block lists.
	var sb strings.Builder
	sb.WriteString("Horizontal blocks = ")
	for i := 0; i < 5000; i++ {
		sb.WriteString("A1 ")
	}
	sb.WriteByte('\n')
	lines := lexString(t, sb.String())
	if len(lines[0].fields) != 5001 {
		t.Errorf("fields: %d", len(lines[0].fields))
	}
}

// A line past the lexer's 1 MiB cap is a reader failure: every entry
// point reports it as a positioned *ParseError at the line it cut short,
// unwrapping to bufio.ErrTooLong.
func TestLexReadFailurePositioned(t *testing.T) {
	src := "A b=1\n" + strings.Repeat("x", 1<<20+1) + "\n"
	for name, parse := range map[string]func(string) error{
		"ParseString": func(s string) error { _, err := ParseString(s); return err },
		"ParseDocument": func(s string) error {
			_, _, err := ParseDocument(strings.NewReader(s))
			return err
		},
		"ParseOverlayString": func(s string) error { _, err := ParseOverlayString(s); return err },
	} {
		err := parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 {
			t.Errorf("%s: got %v, want a *ParseError at line 2", name, err)
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: errors.Is(%v, bufio.ErrTooLong) = false", name, err)
		}
	}
}

func TestFieldText(t *testing.T) {
	f := field{key: "a", value: "b"}
	if f.text() != "a=b" {
		t.Errorf("text: %q", f.text())
	}
	f = field{value: "bare"}
	if f.text() != "bare" {
		t.Errorf("text: %q", f.text())
	}
}
