package drampower

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// The public API test doubles as executable documentation: everything the
// README shows must work through the facade alone.

func TestQuickstartFlow(t *testing.T) {
	d := Sample1GbDDR3()
	m, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	idd := m.IDD()
	if idd.IDD0 <= 0 || idd.IDD4R <= 0 {
		t.Fatalf("IDD: %+v", idd)
	}
	res := m.Evaluate()
	if res.Power <= 0 || res.EnergyPerBit <= 0 {
		t.Fatalf("pattern result: %+v", res)
	}
}

func TestParseRoundTripThroughFacade(t *testing.T) {
	d := Sample1GbDDR3()
	src := Format(d)
	back, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if Format(back) != src {
		t.Error("facade round trip not a fixpoint")
	}
	if _, err := Parse(strings.NewReader(src)); err != nil {
		t.Errorf("Parse: %v", err)
	}
}

func TestRoadmapThroughFacade(t *testing.T) {
	nodes := Roadmap()
	if len(nodes) < 12 {
		t.Fatalf("roadmap: %d nodes", len(nodes))
	}
	n, err := NodeFor(55)
	if err != nil {
		t.Fatal(err)
	}
	if n.Interface != DDR3 {
		t.Errorf("55nm interface: %v", n.Interface)
	}
	m, err := Build(n.Description())
	if err != nil {
		t.Fatal(err)
	}
	if m.IDD().IDD0 <= 0 {
		t.Error("roadmap device has no IDD0")
	}
}

func TestDeviceForThroughFacade(t *testing.T) {
	dv, err := DeviceFor(65, DDR3, 1<<30, 8, 1.066)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(dv.Build())
	if err != nil {
		t.Fatal(err)
	}
	if m.D.Spec.IOWidth != 8 {
		t.Errorf("IO width: %d", m.D.Spec.IOWidth)
	}
}

func TestAnalysesThroughFacade(t *testing.T) {
	d := Sample1GbDDR3()
	sens, err := Sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) == 0 || sens[0].RangePct <= 0 {
		t.Error("sweep returned nothing")
	}
	sch, err := EvaluateSchemes(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch) < 5 {
		t.Errorf("schemes: %d results", len(sch))
	}
	ddr2, err := CompareDatasheetDDR2()
	if err != nil {
		t.Fatal(err)
	}
	ddr3, err := CompareDatasheetDDR3()
	if err != nil {
		t.Fatal(err)
	}
	if len(ddr2) == 0 || len(ddr3) == 0 {
		t.Error("datasheet comparisons empty")
	}
}

func TestTraceThroughFacade(t *testing.T) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	cmds := RandomClosedPageWorkload(m, 50, 0.5, 1)
	res, err := RunTrace(m, cmds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits == 0 || res.EnergyPerBit <= 0 {
		t.Errorf("trace result: %+v", res)
	}
	st := StreamingWorkload(m, 100, 1.0, 2)
	if _, err := RunTrace(m, st); err != nil {
		t.Errorf("streaming: %v", err)
	}
	s := NewSimulator(m)
	if err := s.Issue(Command{Slot: 0, Op: OpActivate, Bank: 0, Row: 3}); err != nil {
		t.Errorf("simulator: %v", err)
	}
}

func TestReplayTraceThroughFacade(t *testing.T) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	banks := m.D.Spec.Banks()
	per := [][]Command{
		RandomClosedPageWorkload(m, 80, 0.5, 1),
		StreamingWorkload(m, 200, 0.7, 2),
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, InterleaveChannels(per, banks)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	res, err := ReplayTrace(m, bytes.NewReader(data), ReplayOptions{Channels: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits == 0 || res.EnergyPerBit <= 0 {
		t.Errorf("replay result: %+v", res)
	}
	if got := res.Counts[OpActivate]; got != 88 { // 80 closed-page + 8 streaming bank-opens
		t.Errorf("merged activate count: got %d, want 88", got)
	}

	// The streaming scanner sees the same commands WriteTrace emitted.
	sc := NewTraceScanner(bytes.NewReader(data))
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(per[0]) + len(per[1]); n != want {
		t.Errorf("scanner saw %d commands, want %d", n, want)
	}
}

func TestTraceParseErrorThroughFacade(t *testing.T) {
	m, err := Build(Sample1GbDDR3())
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReplayTrace(m, strings.NewReader("0 act 0 1\nnot a command\n"), ReplayOptions{})
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *ParseError", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("parse error line: got %d, want 2", pe.Line)
	}
}
