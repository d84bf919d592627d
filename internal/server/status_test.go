package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/trace"
)

// TestStreamingErrorStatus pins the status mapping of the two streaming
// upload endpoints in both encodings: a body over MaxTraceBytes is 413
// even though the scanners report the cut-off read as a positioned
// error, and a malformed body is 400 with the offending line/column.
func TestStreamingErrorStatus(t *testing.T) {
	const maxBytes = 512

	var textTrace, textAccess strings.Builder
	var cmds []trace.Command
	var reqs []ctl.Request
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&textTrace, "%d nop\n", 10*i)
		fmt.Fprintf(&textAccess, "%d r %#x\n", 10*i, 64*i)
		cmds = append(cmds, trace.Command{Slot: int64(10 * i), Op: desc.OpNop})
		reqs = append(reqs, ctl.Request{Slot: int64(10 * i), Addr: int64(64 * i)})
	}
	var dtb, dab bytes.Buffer
	if err := trace.WriteBinaryTrace(&dtb, cmds); err != nil {
		t.Fatal(err)
	}
	if err := ctl.WriteBinaryAccessTrace(&dab, reqs); err != nil {
		t.Fatal(err)
	}

	// Malformed binary bodies: two valid records, then a record whose
	// flag byte sets reserved bits — an error at ordinal 3, column 0.
	var badDtb, badDab bytes.Buffer
	if err := trace.WriteBinaryTrace(&badDtb, cmds[:2]); err != nil {
		t.Fatal(err)
	}
	badDtb.WriteByte(0xC0)
	if err := ctl.WriteBinaryAccessTrace(&badDab, reqs[:2]); err != nil {
		t.Fatal(err)
	}
	badDab.WriteByte(0x80)

	const (
		traceURL    = "/v1/trace"
		scheduleURL = "/v1/schedule"
	)
	cases := []struct {
		name, path, contentType, body string
		status, line, col             int
	}{
		{"trace text over cap", traceURL, "text/plain", textTrace.String(), http.StatusRequestEntityTooLarge, 0, 0},
		{"trace dtb over cap", traceURL, TraceBinaryContentType, dtb.String(), http.StatusRequestEntityTooLarge, 0, 0},
		{"access text over cap", scheduleURL, "text/plain", textAccess.String(), http.StatusRequestEntityTooLarge, 0, 0},
		{"access dab over cap", scheduleURL, AccessBinaryContentType, dab.String(), http.StatusRequestEntityTooLarge, 0, 0},
		{"trace text malformed", traceURL, "text/plain", "0 act 0 0\n5 xx 0 0\n", http.StatusBadRequest, 2, 3},
		{"trace dtb malformed", traceURL, TraceBinaryContentType, badDtb.String(), http.StatusBadRequest, 3, 0},
		{"access text malformed", scheduleURL, "text/plain", "0 r 0x10\n5 Q 0x20\n", http.StatusBadRequest, 2, 3},
		{"access dab malformed", scheduleURL, AccessBinaryContentType, badDab.String(), http.StatusBadRequest, 3, 0},
	}

	_, hs := newTestServer(t, Options{MaxTraceBytes: maxBytes})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.status == http.StatusRequestEntityTooLarge && len(tc.body) <= maxBytes {
				t.Fatalf("body of %d bytes does not exceed the %d-byte cap", len(tc.body), maxBytes)
			}
			resp, err := http.Post(hs.URL+tc.path, tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body %q: %v", body, err)
			}
			if e.Line != tc.line || e.Col != tc.col {
				t.Fatalf("position line %d col %d, want line %d col %d: %s", e.Line, e.Col, tc.line, tc.col, e.Error)
			}
		})
	}
}
