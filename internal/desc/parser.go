package desc

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"drampower/internal/units"
)

// ParseError reports a syntax or semantic problem at a specific input
// position, for every input surface: descriptions, command traces and
// access traces. Line is 1-based (for binary traces, the ordinal of the
// offending record); Col is the 1-based column of the offending token,
// or 0 when the problem concerns the whole line or record. Kind names the
// input ("trace", "access"); empty means a description. Parse, ParseString
// and ParseFile, like the trace and access scanners, surface it (possibly
// wrapped with the file path), so callers recover the position with
// errors.As:
//
//	var pe *desc.ParseError
//	if errors.As(err, &pe) { editor.Jump(pe.Line, pe.Col) }
type ParseError struct {
	Kind string
	Line int
	Col  int
	Msg  string
	// Err is the reader error behind a stream failure, when the input
	// itself failed rather than its syntax; nil for ordinary parse errors.
	Err error
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	kind := e.Kind
	if kind == "" {
		kind = "desc"
	}
	if e.Col > 0 {
		return fmt.Sprintf("%s: line %d, col %d: %s", kind, e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("%s: line %d: %s", kind, e.Line, e.Msg)
}

// Unwrap exposes the reader error behind a stream failure, so callers can
// errors.Is/As through the positioned wrapper (e.g. to tell a cancelled
// context or an http.MaxBytesError apart from genuinely bad input).
func (e *ParseError) Unwrap() error { return e.Err }

// errMsg formats a ParseError message, dropping a leading "desc: " from
// embedded errors so Error() doesn't render the package prefix twice.
func errMsg(format string, args ...any) string {
	return strings.TrimPrefix(fmt.Sprintf(format, args...), "desc: ")
}

func errAt(n int, format string, args ...any) error {
	return &ParseError{Line: n, Msg: errMsg(format, args...)}
}

// errAtField positions the error at a specific token of the line.
func errAtField(n int, f field, format string, args ...any) error {
	return &ParseError{Line: n, Col: f.col, Msg: errMsg(format, args...)}
}

// ParseFile reads and parses a description file.
func ParseFile(path string) (*Description, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("desc: %v", err)
	}
	defer f.Close()
	d, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// ParseString parses a description from a string.
func ParseString(src string) (*Description, error) {
	return Parse(strings.NewReader(src))
}

// Parse reads a DRAM description in the input language of Section III.B.
// The returned description has been syntax-checked but not validated; call
// Description.Validate to run the semantic checks (the "syntax check" stage
// of Figure 4 covers both here).
func Parse(r io.Reader) (*Description, error) {
	lines, err := lex(r)
	if err != nil {
		return nil, err
	}
	return parseLines(lines)
}

// parseLines runs the description parser over pre-lexed lines (shared
// with ParseDocument, which splits a combined descriptor+calibration
// document before parsing each half).
func parseLines(lines []line) (*Description, error) {
	p := &parser{d: &Description{}}
	p.d.Floorplan.BlockWidth = make(map[string]units.Length)
	p.d.Floorplan.BlockHeight = make(map[string]units.Length)
	for _, ln := range lines {
		if err := p.line(ln); err != nil {
			return nil, err
		}
	}
	return p.d, nil
}

// secNone marks "outside any section"; the other sections are tracked by
// their header spelling ("FloorplanPhysical" etc.).
const secNone = ""

type parser struct {
	d       *Description
	section string
}

func (p *parser) line(ln line) error {
	head := ln.fields[0]
	if head.bare() {
		switch head.value {
		case "FloorplanPhysical", "FloorplanSignaling", "Technology",
			"Specification", "Electrical":
			if len(ln.fields) != 1 {
				return errAtField(ln.num, ln.fields[1], "section header %s takes no arguments", head.value)
			}
			p.section = head.value
			return nil
		case "Name":
			if len(ln.fields) < 2 {
				return errAtField(ln.num, head, "Name takes at least one argument")
			}
			parts := make([]string, 0, len(ln.fields)-1)
			for _, f := range ln.fields[1:] {
				if !f.bare() {
					return errAtField(ln.num, f, "Name takes bare words, got %q", f.text())
				}
				parts = append(parts, f.value)
			}
			p.d.Name = strings.Join(parts, " ")
			p.section = secNone
			return nil
		case "LogicBlock":
			p.section = secNone
			return p.logicBlock(ln)
		case "Pattern":
			p.section = secNone
			return p.pattern(ln)
		}
	}
	switch p.section {
	case "FloorplanPhysical":
		return p.floorplanPhysical(ln)
	case "FloorplanSignaling":
		return p.signaling(ln)
	case "Technology":
		return p.technology(ln)
	case "Specification":
		return p.specification(ln)
	case "Electrical":
		return p.electrical(ln)
	}
	return errAtField(ln.num, head, "unexpected directive %q outside any section", head.text())
}

// ---- attribute helpers ----

// attrs collects the key=value fields of a line and tracks which were used,
// so unknown attributes can be reported. Each attribute remembers the
// column of its field, so value errors point at the offending token.
type attrs struct {
	num  int
	m    map[string]string
	cols map[string]int
	used map[string]bool
	bare []string
}

func newAttrs(ln line, skip int) (*attrs, error) {
	a := &attrs{num: ln.num, m: map[string]string{},
		cols: map[string]int{}, used: map[string]bool{}}
	for _, f := range ln.fields[skip:] {
		if f.bare() {
			a.bare = append(a.bare, f.value)
			continue
		}
		if _, dup := a.m[f.key]; dup {
			return nil, errAtField(ln.num, f, "duplicate attribute %q", f.key)
		}
		a.m[f.key] = f.value
		a.cols[f.key] = f.col
	}
	return a, nil
}

// errKey positions an error at the named attribute's token.
func (a *attrs) errKey(key, format string, args ...any) error {
	return &ParseError{Line: a.num, Col: a.cols[key], Msg: errMsg(format, args...)}
}

func (a *attrs) has(key string) bool { _, ok := a.m[key]; return ok }

func (a *attrs) get(key string) (string, bool) {
	v, ok := a.m[key]
	if ok {
		a.used[key] = true
	}
	return v, ok
}

// leftover returns the unused attribute keys, leftmost first.
func (a *attrs) leftover() []string {
	var extra []string
	for k := range a.m {
		if !a.used[k] {
			extra = append(extra, k)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return a.cols[extra[i]] < a.cols[extra[j]] })
	return extra
}

func (a *attrs) finish(context string) error {
	if extra := a.leftover(); len(extra) > 0 {
		return a.errKey(extra[0], "%s: unknown attribute %q", context, extra[0])
	}
	return nil
}

func (a *attrs) intAttr(key string, dst *int) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return a.errKey(key, "attribute %s: bad integer %q", key, v)
	}
	*dst = n
	return nil
}

func (a *attrs) lengthAttr(key string, dst *units.Length) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	l, err := units.ParseLength(v)
	if err != nil {
		return a.errKey(key, "attribute %s: %v", key, err)
	}
	*dst = l
	return nil
}

func (a *attrs) fractionAttr(key string, dst *float64) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	f, err := units.ParseFraction(v)
	if err != nil {
		return a.errKey(key, "attribute %s: %v", key, err)
	}
	*dst = f
	return nil
}

func (a *attrs) durationAttr(key string, dst *units.Duration) error {
	v, ok := a.get(key)
	if !ok {
		return nil
	}
	d, err := units.ParseDuration(v)
	if err != nil {
		return a.errKey(key, "attribute %s: %v", key, err)
	}
	*dst = d
	return nil
}

// ---- FloorplanPhysical ----

func (p *parser) floorplanPhysical(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected a floorplan directive, got %q", head.text())
	}
	fp := &p.d.Floorplan
	switch head.value {
	case "CellArray":
		a, err := newAttrs(ln, 1)
		if err != nil {
			return err
		}
		if v, ok := a.get("BL"); ok {
			ax, err := ParseAxis(v)
			if err != nil {
				return a.errKey("BL", "%v", err)
			}
			fp.BitlineDir = ax
		}
		if err := a.intAttr("BitsPerBL", &fp.BitsPerBitline); err != nil {
			return err
		}
		if err := a.intAttr("BitsPerLWL", &fp.BitsPerLocalWordline); err != nil {
			return err
		}
		if v, ok := a.get("BLtype"); ok {
			arch, err := ParseBitlineArch(v)
			if err != nil {
				return a.errKey("BLtype", "%v", err)
			}
			fp.Arch = arch
		}
		if err := a.lengthAttr("WLpitch", &fp.WordlinePitch); err != nil {
			return err
		}
		if err := a.lengthAttr("BLpitch", &fp.BitlinePitch); err != nil {
			return err
		}
		if err := a.fractionAttr("ActFraction", &fp.ActivationFraction); err != nil {
			return err
		}
		return a.finish("CellArray")
	case "Stripes":
		a, err := newAttrs(ln, 1)
		if err != nil {
			return err
		}
		if err := a.lengthAttr("BLSA", &fp.BLSAStripeWidth); err != nil {
			return err
		}
		if err := a.lengthAttr("LWD", &fp.LWDStripeWidth); err != nil {
			return err
		}
		return a.finish("Stripes")
	case "CSL":
		a, err := newAttrs(ln, 1)
		if err != nil {
			return err
		}
		if err := a.intAttr("blocks", &fp.BlocksPerCSL); err != nil {
			return err
		}
		return a.finish("CSL")
	case "Vertical", "Horizontal":
		return p.blockList(ln, head.value == "Vertical")
	case "SizeVertical", "SizeHorizontal":
		return p.blockSizes(ln, head.value == "SizeVertical")
	}
	return errAtField(ln.num, head, "unknown floorplan directive %q", head.value)
}

func (p *parser) blockList(ln line, vertical bool) error {
	// "Vertical blocks = A1 P1 P2 P1 A1" arrives as fields
	// [Vertical] [blocks=A1] [P1] [P2] [P1] [A1].
	if len(ln.fields) < 2 || ln.fields[1].key != "blocks" {
		return errAtField(ln.num, ln.fields[0], "expected 'blocks = <names...>'")
	}
	names := []string{ln.fields[1].value}
	for _, f := range ln.fields[2:] {
		if !f.bare() {
			return errAtField(ln.num, f, "unexpected attribute %q in block list", f.text())
		}
		names = append(names, f.value)
	}
	if names[0] == "" {
		return errAtField(ln.num, ln.fields[1], "empty block list")
	}
	if vertical {
		p.d.Floorplan.VerticalBlocks = names
	} else {
		p.d.Floorplan.HorizontalBlocks = names
	}
	return nil
}

func (p *parser) blockSizes(ln line, vertical bool) error {
	if len(ln.fields) < 2 {
		return errAtField(ln.num, ln.fields[0], "expected block sizes, e.g. 'SizeVertical A1=3396um'")
	}
	dst := p.d.Floorplan.BlockWidth
	if vertical {
		dst = p.d.Floorplan.BlockHeight
	}
	for _, f := range ln.fields[1:] {
		if f.bare() {
			return errAtField(ln.num, f, "expected name=size, got %q", f.text())
		}
		l, err := units.ParseLength(f.value)
		if err != nil {
			return errAtField(ln.num, f, "size of block %s: %v", f.key, err)
		}
		dst[f.key] = l
	}
	return nil
}

// ---- FloorplanSignaling ----

func (p *parser) signaling(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected a signal segment name, got %q", head.text())
	}
	kind, err := KindForBus(head.value)
	if err != nil {
		return errAtField(ln.num, head, "%v", err)
	}
	seg := Segment{Name: head.value, Kind: kind, Toggle: -1}
	a, err := newAttrs(ln, 1)
	if err != nil {
		return err
	}
	if v, ok := a.get("inside"); ok {
		ref, err := ParseBlockRef(v)
		if err != nil {
			return a.errKey("inside", "%v", err)
		}
		seg.Inside = &ref
		seg.Fraction = 1
	}
	if err := a.fractionAttr("fraction", &seg.Fraction); err != nil {
		return err
	}
	if v, ok := a.get("dir"); ok {
		ax, err := ParseAxis(v)
		if err != nil {
			return a.errKey("dir", "%v", err)
		}
		seg.Dir = ax
	}
	if v, ok := a.get("start"); ok {
		ref, err := ParseBlockRef(v)
		if err != nil {
			return a.errKey("start", "%v", err)
		}
		seg.Start = &ref
	}
	if v, ok := a.get("end"); ok {
		ref, err := ParseBlockRef(v)
		if err != nil {
			return a.errKey("end", "%v", err)
		}
		seg.End = &ref
	}
	if err := a.lengthAttr("NchW", &seg.BufNWidth); err != nil {
		return err
	}
	if err := a.lengthAttr("PchW", &seg.BufPWidth); err != nil {
		return err
	}
	if v, ok := a.get("mux"); ok {
		// "1:8" means the bus widens 8x downstream.
		frac, err := units.ParseFraction(v)
		if err != nil || frac <= 0 {
			return a.errKey("mux", "bad mux ratio %q", v)
		}
		if frac > 1 {
			seg.MuxRatio = int(frac + 0.5)
		} else {
			seg.MuxRatio = int(1/frac + 0.5)
		}
	}
	if err := a.fractionAttr("toggle", &seg.Toggle); err != nil {
		return err
	}
	if err := a.intAttr("wires", &seg.Wires); err != nil {
		return err
	}
	if err := a.fractionAttr("activefrac", &seg.ActiveFrac); err != nil {
		return err
	}
	if err := a.finish("signal " + seg.Name); err != nil {
		return err
	}
	p.d.Signals = append(p.d.Signals, seg)
	return nil
}

// ---- Technology ----

// technologySetters maps the input-language key of each technology
// parameter to a setter. The keys are the Table I names in compact form.
func technologySetters(t *Technology) map[string]func(string) error {
	lenSet := func(dst *units.Length) func(string) error {
		return func(v string) error {
			l, err := units.ParseLength(v)
			if err != nil {
				return err
			}
			*dst = l
			return nil
		}
	}
	capSet := func(dst *units.Capacitance) func(string) error {
		return func(v string) error {
			c, err := units.ParseCapacitance(v)
			if err != nil {
				return err
			}
			*dst = c
			return nil
		}
	}
	cplSet := func(dst *units.CapacitancePerLength) func(string) error {
		return func(v string) error {
			c, err := units.ParseCapacitancePerLength(v)
			if err != nil {
				return err
			}
			*dst = c
			return nil
		}
	}
	fracSet := func(dst *float64) func(string) error {
		return func(v string) error {
			f, err := units.ParseFraction(v)
			if err != nil {
				return err
			}
			*dst = f
			return nil
		}
	}
	intSet := func(dst *int) func(string) error {
		return func(v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			*dst = n
			return nil
		}
	}
	return map[string]func(string) error{
		"GateOxideLogic":      lenSet(&t.GateOxideLogic),
		"GateOxideHV":         lenSet(&t.GateOxideHV),
		"GateOxideCell":       lenSet(&t.GateOxideCell),
		"MinGateLengthLogic":  lenSet(&t.MinGateLengthLogic),
		"JunctionCapLogic":    cplSet(&t.JunctionCapLogic),
		"MinGateLengthHV":     lenSet(&t.MinGateLengthHV),
		"JunctionCapHV":       cplSet(&t.JunctionCapHV),
		"CellAccessLength":    lenSet(&t.CellAccessLength),
		"CellAccessWidth":     lenSet(&t.CellAccessWidth),
		"BitlineCap":          capSet(&t.BitlineCap),
		"CellCap":             capSet(&t.CellCap),
		"BitlineToWLShare":    fracSet(&t.BitlineToWLShare),
		"BitsPerCSL":          intSet(&t.BitsPerCSL),
		"WireCapMWL":          cplSet(&t.WireCapMWL),
		"MWLPredecodeRatio":   fracSet(&t.MWLPredecodeRatio),
		"MWLDecoderNMOS":      lenSet(&t.MWLDecoderNMOS),
		"MWLDecoderPMOS":      lenSet(&t.MWLDecoderPMOS),
		"MWLDecoderActivity":  fracSet(&t.MWLDecoderActivity),
		"WLControlLoadNMOS":   lenSet(&t.WLControlLoadNMOS),
		"WLControlLoadPMOS":   lenSet(&t.WLControlLoadPMOS),
		"SWDriverNMOS":        lenSet(&t.SWDriverNMOS),
		"SWDriverPMOS":        lenSet(&t.SWDriverPMOS),
		"SWDriverRestore":     lenSet(&t.SWDriverRestore),
		"WireCapLWL":          cplSet(&t.WireCapLWL),
		"BLSASenseNMOSWidth":  lenSet(&t.BLSASenseNMOSWidth),
		"BLSASenseNMOSLength": lenSet(&t.BLSASenseNMOSLength),
		"BLSASensePMOSWidth":  lenSet(&t.BLSASensePMOSWidth),
		"BLSASensePMOSLength": lenSet(&t.BLSASensePMOSLength),
		"BLSAEqualizeWidth":   lenSet(&t.BLSAEqualizeWidth),
		"BLSAEqualizeLength":  lenSet(&t.BLSAEqualizeLength),
		"BLSABitSwitchWidth":  lenSet(&t.BLSABitSwitchWidth),
		"BLSABitSwitchLength": lenSet(&t.BLSABitSwitchLength),
		"BLSAMuxWidth":        lenSet(&t.BLSAMuxWidth),
		"BLSAMuxLength":       lenSet(&t.BLSAMuxLength),
		"BLSANSetWidth":       lenSet(&t.BLSANSetWidth),
		"BLSANSetLength":      lenSet(&t.BLSANSetLength),
		"BLSAPSetWidth":       lenSet(&t.BLSAPSetWidth),
		"BLSAPSetLength":      lenSet(&t.BLSAPSetLength),
		"WireCapSignal":       cplSet(&t.WireCapSignal),
	}
}

// TechnologyParameterNames returns the input-language names of all
// technology parameters in a stable order (used by the sensitivity sweep
// and by documentation).
func TechnologyParameterNames() []string {
	return []string{
		"GateOxideLogic", "GateOxideHV", "GateOxideCell",
		"MinGateLengthLogic", "JunctionCapLogic", "MinGateLengthHV",
		"JunctionCapHV", "CellAccessLength", "CellAccessWidth",
		"BitlineCap", "CellCap", "BitlineToWLShare", "BitsPerCSL",
		"WireCapMWL", "MWLPredecodeRatio", "MWLDecoderNMOS",
		"MWLDecoderPMOS", "MWLDecoderActivity", "WLControlLoadNMOS",
		"WLControlLoadPMOS", "SWDriverNMOS", "SWDriverPMOS",
		"SWDriverRestore", "WireCapLWL",
		"BLSASenseNMOSWidth", "BLSASenseNMOSLength",
		"BLSASensePMOSWidth", "BLSASensePMOSLength",
		"BLSAEqualizeWidth", "BLSAEqualizeLength",
		"BLSABitSwitchWidth", "BLSABitSwitchLength",
		"BLSAMuxWidth", "BLSAMuxLength",
		"BLSANSetWidth", "BLSANSetLength",
		"BLSAPSetWidth", "BLSAPSetLength",
		"WireCapSignal",
	}
}

func (p *parser) technology(ln line) error {
	if len(ln.fields) != 2 || !ln.fields[0].bare() || !ln.fields[1].bare() {
		return errAt(ln.num, "technology parameters are 'Name value' lines")
	}
	key, val := ln.fields[0].value, ln.fields[1].value
	set, ok := technologySetters(&p.d.Technology)[key]
	if !ok {
		return errAtField(ln.num, ln.fields[0], "unknown technology parameter %q", key)
	}
	if err := set(val); err != nil {
		return errAtField(ln.num, ln.fields[1], "technology parameter %s: %v", key, err)
	}
	return nil
}

// ---- Specification ----

func (p *parser) specification(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected a specification directive, got %q", head.text())
	}
	s := &p.d.Spec
	a, err := newAttrs(ln, 1)
	if err != nil {
		return err
	}
	switch head.value {
	case "IO":
		if err := a.intAttr("width", &s.IOWidth); err != nil {
			return err
		}
		if v, ok := a.get("datarate"); ok {
			r, err := units.ParseDataRate(v)
			if err != nil {
				return a.errKey("datarate", "datarate: %v", err)
			}
			s.DataRate = r
		}
		return a.finish("IO")
	case "Clock":
		if err := a.intAttr("number", &s.ClockWires); err != nil {
			return err
		}
		if v, ok := a.get("frequency"); ok {
			f, err := units.ParseFrequency(v)
			if err != nil {
				return a.errKey("frequency", "frequency: %v", err)
			}
			s.DataClock = f
		}
		return a.finish("Clock")
	case "Control":
		if v, ok := a.get("frequency"); ok {
			f, err := units.ParseFrequency(v)
			if err != nil {
				return a.errKey("frequency", "frequency: %v", err)
			}
			s.ControlClock = f
		}
		if err := a.intAttr("bankadd", &s.BankAddrBits); err != nil {
			return err
		}
		if err := a.intAttr("rowadd", &s.RowAddrBits); err != nil {
			return err
		}
		if err := a.intAttr("coladd", &s.ColAddrBits); err != nil {
			return err
		}
		if err := a.intAttr("misc", &s.MiscCtrlSignals); err != nil {
			return err
		}
		return a.finish("Control")
	case "Burst":
		if err := a.intAttr("length", &s.BurstLength); err != nil {
			return err
		}
		return a.finish("Burst")
	case "Timing":
		for key, dst := range map[string]*units.Duration{
			"tRC": &s.RowCycle, "tRCD": &s.RowToColumnDelay,
			"tRP": &s.PrechargeTime, "CL": &s.CASLatency,
			"tFAW": &s.FourBankWindow, "tRRD": &s.RowToRowDelay,
			"tREFI": &s.RefreshInterval, "tRFC": &s.RefreshCycle,
		} {
			if err := a.durationAttr(key, dst); err != nil {
				return err
			}
		}
		return a.finish("Timing")
	}
	return errAtField(ln.num, head, "unknown specification directive %q", head.value)
}

// ---- Electrical ----

func (p *parser) electrical(ln line) error {
	head := ln.fields[0]
	if !head.bare() {
		return errAtField(ln.num, head, "expected an electrical directive, got %q", head.text())
	}
	el := &p.d.Electrical
	switch head.value {
	case "Vdd", "Vint", "Vbl", "Vpp":
		if len(ln.fields) < 2 || !ln.fields[1].bare() {
			return errAtField(ln.num, head, "%s needs a voltage, e.g. '%s 1.5V'", head.value, head.value)
		}
		v, err := units.ParseVoltage(ln.fields[1].value)
		if err != nil {
			return errAtField(ln.num, ln.fields[1], "%s: %v", head.value, err)
		}
		a, err := newAttrs(ln, 2)
		if err != nil {
			return err
		}
		eff := 1.0
		if err := a.fractionAttr("eff", &eff); err != nil {
			return err
		}
		if err := a.finish(head.value); err != nil {
			return err
		}
		switch head.value {
		case "Vdd":
			el.Vdd = v
		case "Vint":
			el.Vint, el.EffInt = v, eff
		case "Vbl":
			el.Vbl, el.EffBl = v, eff
		case "Vpp":
			el.Vpp, el.EffPp = v, eff
		}
		return nil
	case "ConstantCurrent":
		if len(ln.fields) != 2 || !ln.fields[1].bare() {
			return errAtField(ln.num, head, "ConstantCurrent needs a current, e.g. 'ConstantCurrent 3mA'")
		}
		v := ln.fields[1].value
		// Currents use the same SI grammar with base unit "A".
		num, err := parseCurrent(v)
		if err != nil {
			return errAtField(ln.num, ln.fields[1], "ConstantCurrent: %v", err)
		}
		el.ConstantCurrent = num
		return nil
	}
	return errAtField(ln.num, head, "unknown electrical directive %q", head.value)
}

func parseCurrent(s string) (units.Current, error) {
	// Reuse the voltage parser's grammar by substituting the unit letter.
	if strings.HasSuffix(s, "A") {
		v, err := units.ParseVoltage(strings.TrimSuffix(s, "A") + "V")
		return units.Current(v), err
	}
	v, err := units.ParseVoltage(s)
	return units.Current(v), err
}

// ---- LogicBlock ----

func (p *parser) logicBlock(ln line) error {
	b := LogicBlock{TransistorsPerGate: 4, Toggle: 0.5, GateDensity: 0.25, WiringDensity: 0.4}
	a, err := newAttrs(ln, 1)
	if err != nil {
		return err
	}
	if v, ok := a.get("name"); ok {
		b.Name = v
	}
	if err := a.intAttr("gates", &b.Gates); err != nil {
		return err
	}
	if err := a.lengthAttr("nmos", &b.AvgNMOSWidth); err != nil {
		return err
	}
	if err := a.lengthAttr("pmos", &b.AvgPMOSWidth); err != nil {
		return err
	}
	if err := a.fractionAttr("pergate", &b.TransistorsPerGate); err != nil {
		return err
	}
	if err := a.fractionAttr("density", &b.GateDensity); err != nil {
		return err
	}
	if err := a.fractionAttr("wiring", &b.WiringDensity); err != nil {
		return err
	}
	if err := a.fractionAttr("toggle", &b.Toggle); err != nil {
		return err
	}
	if v, ok := a.get("active"); ok && v != "always" {
		for _, opName := range strings.Split(v, ",") {
			op, err := ParseOp(opName)
			if err != nil {
				return a.errKey("active", "logic block %s: %v", b.Name, err)
			}
			b.ActiveDuring = append(b.ActiveDuring, op)
		}
	}
	if err := a.finish("LogicBlock " + b.Name); err != nil {
		return err
	}
	if b.Name == "" {
		return errAtField(ln.num, ln.fields[0], "LogicBlock needs a name attribute")
	}
	p.d.LogicBlocks = append(p.d.LogicBlocks, b)
	return nil
}

// ---- Pattern ----

func (p *parser) pattern(ln line) error {
	// "Pattern loop= act nop wrt nop rd nop pre nop" arrives as
	// [Pattern] [loop=act] [nop] [wrt] ...
	if len(ln.fields) < 2 || ln.fields[1].key != "loop" {
		return errAtField(ln.num, ln.fields[0], "expected 'Pattern loop= <ops...>'")
	}
	names := []field{{value: ln.fields[1].value, col: ln.fields[1].col}}
	for _, f := range ln.fields[2:] {
		if !f.bare() {
			return errAtField(ln.num, f, "unexpected attribute %q in pattern", f.text())
		}
		names = append(names, f)
	}
	var loop []Op
	for _, n := range names {
		if n.value == "" {
			continue
		}
		op, err := ParseOp(n.value)
		if err != nil {
			return errAtField(ln.num, n, "%v", err)
		}
		loop = append(loop, op)
	}
	if len(loop) == 0 {
		return errAtField(ln.num, ln.fields[0], "empty pattern loop")
	}
	p.d.Pattern.Loop = loop
	return nil
}
