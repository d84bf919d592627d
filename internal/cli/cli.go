// Package cli centralizes the error-exit path of the cmd/* binaries so
// all of them behave identically on bad input: diagnostics go to stderr
// only (never interleaved into stdout, which may be carrying -format json
// or emitted descriptors/traces), positioned parse errors render with
// their input coordinates, and the process exits with a non-zero status.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"drampower/internal/desc"
)

// exit allows tests to intercept the process exit.
var exit = os.Exit

// stderr allows tests to capture the diagnostic stream.
var stderr io.Writer = os.Stderr

// Fatal prints "tool: error" to stderr and exits 1. Positioned errors
// (desc.ParseError, from descriptions, command traces and access traces
// alike) already carry their line/column in Error(); Fatal additionally
// prefixes the offending input name when one is known, producing
// editor-friendly "tool: file: line N, col M: msg".
func Fatal(tool string, err error) {
	FatalInput(tool, "", err)
}

// FatalInput is Fatal with the name of the input (file path or "<stdin>")
// the error came from; empty means no input context.
func FatalInput(tool, input string, err error) {
	var pe *desc.ParseError
	positioned := errors.As(err, &pe)
	// Some entry points (desc.ParseFile) already wrap the path into the
	// error text; don't prefix it twice.
	if strings.Contains(err.Error(), input) {
		input = ""
	}
	if input != "" && positioned {
		fmt.Fprintf(stderr, "%s: %s: %v\n", tool, input, err)
	} else {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	}
	exit(1)
}

// Fatalf is Fatal with formatting.
func Fatalf(tool, format string, args ...any) {
	Fatal(tool, fmt.Errorf(format, args...))
}
