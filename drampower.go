// Package drampower is a Go implementation of the flexible DRAM power
// model of Thomas Vogelsang, "Understanding the Energy Consumption of
// Dynamic Random Access Memories", MICRO-43 (2010).
//
// The model computes DRAM power from first principles: a description of
// the device's physical floorplan, signaling floorplan, technology,
// interface specification and operating pattern is resolved into a large
// number of charge/discharge events (P = Σ ½·C·V²·f, Eq. 2 of the paper),
// organized in four voltage domains (Vpp, Vbl, Vint, Vdd) and rolled up
// into per-operation energies, datasheet-style IDD currents and pattern
// power.
//
// # Quick start
//
//	d := drampower.Sample1GbDDR3()          // a calibrated 1 Gb DDR3-1600 x16
//	m, err := drampower.Build(d)            // resolve geometry + capacitances
//	if err != nil { ... }
//	idd := m.IDD()                          // IDD0, IDD2N, IDD4R/W, IDD5, IDD7
//	res := m.Evaluate()                     // power of the description's pattern
//	fmt.Println(idd.IDD0, res.Power, res.EnergyPerBit)
//
// Descriptions can also be read from files in the paper's input language
// (ParseFile / ParseString), generated for any technology node of the
// 170 nm → 16 nm roadmap (Roadmap, NodeFor), swept for parameter
// sensitivity (Sweep), compared against the embedded DDR2/DDR3 datasheet
// values (CompareDatasheet), transformed by the Section V power-reduction
// schemes (EvaluateSchemes) and exercised with timing-validated command
// traces (NewSimulator and the workload generators).
package drampower

import (
	"io"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/datasheet"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
	"drampower/internal/server"
	"drampower/internal/trace"
	"drampower/internal/units"
)

// Re-exported description types: the DRAM description language of
// Section III.B of the paper (see package internal/desc for details).
type (
	// Description is a complete DRAM description (Table I of the paper).
	Description = desc.Description
	// Floorplan, Segment, Technology, Specification, Electrical and
	// LogicBlock are the five parameter groups of Table I.
	Floorplan     = desc.Floorplan
	Segment       = desc.Segment
	Technology    = desc.Technology
	Specification = desc.Specification
	Electrical    = desc.Electrical
	LogicBlock    = desc.LogicBlock
	// Pattern is the repeating command loop whose power is evaluated.
	Pattern = desc.Pattern
	// Op is a basic DRAM operation (act, pre, rd, wrt, nop, ref).
	Op = desc.Op
)

// Basic operations.
const (
	OpNop       = desc.OpNop
	OpActivate  = desc.OpActivate
	OpPrecharge = desc.OpPrecharge
	OpRead      = desc.OpRead
	OpWrite     = desc.OpWrite
	OpRefresh   = desc.OpRefresh
)

// Trace-level power-state commands (pde, pdx, sre, srx): power-down and
// self-refresh entry/exit. They are legal in traces but not in patterns;
// the simulator's background integral drops to PowerDownPower (IDD2P) or
// SelfRefreshPower (IDD6) for the slots between entry and exit.
const (
	OpPowerDownEnter   = trace.OpPowerDownEnter
	OpPowerDownExit    = trace.OpPowerDownExit
	OpSelfRefreshEnter = trace.OpSelfRefreshEnter
	OpSelfRefreshExit  = trace.OpSelfRefreshExit
)

// TraceOpName renders any trace operation, including the power-state
// commands Op.String does not know (use it for TraceResult.Counts keys).
func TraceOpName(op Op) string { return trace.OpName(op) }

// MaxPostponedRefreshes is the JEDEC refresh postponement bound: up to
// this many consecutive tREFI obligations may slide past their nominal
// due slot before the controller must catch up. The replayer's retention
// audit (TraceResult.MissedRefreshDeadlines) and the controller's
// refresh scheduler both use it as the default.
const MaxPostponedRefreshes = trace.MaxPostponedRefreshes

// Re-exported engine types.
type (
	// Model is a resolved DRAM ready for power evaluation.
	Model = core.Model
	// IDD collects the datasheet-style currents (Section IV.A).
	IDD = core.IDD
	// PatternResult is the evaluation of a command pattern.
	PatternResult = core.PatternResult
)

// Re-exported physical quantity types (SI base units).
type (
	Volts   = units.Voltage
	Watts   = units.Power
	Amperes = units.Current
	Joules  = units.Energy
)

// ParseError reports a parse failure at a specific input position (Line
// 1-based, the record ordinal for binary traces; Col the 1-based byte
// column of the offending token, 0 for whole-line problems). Kind names
// the input: "" for descriptions, "trace" for command traces, "access"
// for access traces. All parse and scan entry points surface it,
// possibly wrapped, so recover it with errors.As:
//
//	var pe *drampower.ParseError
//	if errors.As(err, &pe) { editor.Jump(pe.Line, pe.Col) }
type ParseError = desc.ParseError

// Parse reads a DRAM description in the paper's input language.
func Parse(r io.Reader) (*Description, error) { return desc.Parse(r) }

// ParseFile reads and parses a description file.
func ParseFile(path string) (*Description, error) { return desc.ParseFile(path) }

// ParseString parses a description from a string.
func ParseString(src string) (*Description, error) { return desc.ParseString(src) }

// Format renders a description back into the input language.
func Format(d *Description) string { return desc.Format(d) }

// Sample1GbDDR3 returns the calibrated 1 Gb x16 DDR3-1600 reference device
// (55 nm technology, Figure 1 floorplan).
func Sample1GbDDR3() *Description { return desc.Sample1GbDDR3() }

// Build validates a description and resolves it into a model.
func Build(d *Description) (*Model, error) { return core.Build(d) }

// Calibration overlay types: an Overlay is an ordered list of overrides
// and scalings applied to the derived parameter set (the middle stage of
// the derive → overlay → seal pipeline). See BuildCalibrated.
type (
	Overlay      = desc.Overlay
	OverlayEntry = desc.OverlayEntry
	ParamSet     = core.ParamSet
)

// BuildCalibrated resolves a description and applies a calibration
// overlay to the derived parameter set: measured values (datasheet
// currents, measured per-op energies) override or scale the analytically
// derived ones, while the charge-level circuit model stays untouched. A
// nil or empty overlay makes BuildCalibrated identical to Build, bit for
// bit.
func BuildCalibrated(d *Description, ov *Overlay) (*Model, error) {
	return core.BuildCalibrated(d, ov)
}

// ParseOverlay reads a calibration overlay document ("idd0 = 58mA",
// "op.rd.energy *= 1.07" lines, optional "Calibration <name>" header).
func ParseOverlay(r io.Reader) (*Overlay, error) { return desc.ParseOverlay(r) }

// ParseOverlayFile reads and parses a calibration overlay file.
func ParseOverlayFile(path string) (*Overlay, error) { return desc.ParseOverlayFile(path) }

// ParseOverlayString parses a calibration overlay from a string.
func ParseOverlayString(src string) (*Overlay, error) { return desc.ParseOverlayString(src) }

// FormatOverlay renders an overlay in its canonical form (a bit-exact
// fixed point, like Format for descriptions).
func FormatOverlay(ov *Overlay) string { return desc.FormatOverlay(ov) }

// OverlayKeys lists every valid calibration key in sorted order.
func OverlayKeys() []string { return desc.OverlayKeys() }

// ParseDocument reads a combined document: a description optionally
// followed by a Calibration section. Either half may be absent (nil).
func ParseDocument(r io.Reader) (*Description, *Overlay, error) { return desc.ParseDocument(r) }

// Re-exported generation roadmap types (Section III.C / IV.C).
type (
	// Node is one technology generation (feature size, interface,
	// voltages, timings).
	Node = scaling.Node
	// Device is a buildable DRAM: node technology + interface, density,
	// width and data rate.
	Device = scaling.Device
	// Interface is a DRAM interface generation (SDR … DDR5).
	Interface = scaling.Interface
)

// Interface generations.
const (
	SDR  = scaling.SDR
	DDR  = scaling.DDR
	DDR2 = scaling.DDR2
	DDR3 = scaling.DDR3
	DDR4 = scaling.DDR4
	DDR5 = scaling.DDR5
)

// Roadmap returns the technology generations from 170 nm (SDR, 2000) to
// 16 nm (DDR5, forecast 2018).
func Roadmap() []Node { return scaling.Roadmap() }

// NodeFor returns the roadmap node with the given feature size in
// nanometers.
func NodeFor(featureNm float64) (Node, error) { return scaling.NodeFor(featureNm) }

// DeviceFor builds a device with an explicit interface, density, I/O width
// and per-pin data rate on the technology of the given node.
func DeviceFor(featureNm float64, iface Interface, densityBits int64, ioWidth int, gbps float64) (Device, error) {
	return scaling.DeviceFor(featureNm, iface, densityBits, ioWidth, units.Gbps(gbps))
}

// Re-exported analysis types.
type (
	// SensitivityResult is one row of the Figure 10 Pareto.
	SensitivityResult = sensitivity.Result
	// SchemeResult is one row of the Section V comparison.
	SchemeResult = schemes.Result
	// DatasheetComparison is one row of the Figures 8–9 verification.
	DatasheetComparison = datasheet.Comparison
)

// Sweep varies every model parameter by ±20 % on the given description and
// returns the power responses sorted by impact (Figure 10, Table III).
func Sweep(d *Description) ([]SensitivityResult, error) { return sensitivity.Sweep(d) }

// EvaluateSchemes runs the Section V power-reduction schemes against the
// given baseline and reports energy-per-bit and die-area impact.
func EvaluateSchemes(base *Description) ([]SchemeResult, error) { return schemes.Evaluate(base) }

// CompareDatasheetDDR2 regenerates the Figure 8 verification (1 Gb DDR2
// model vs. five-vendor datasheet values).
func CompareDatasheetDDR2() ([]DatasheetComparison, error) {
	return datasheet.Compare(datasheet.DDR2)
}

// CompareDatasheetDDR3 regenerates the Figure 9 verification (1 Gb DDR3).
func CompareDatasheetDDR3() ([]DatasheetComparison, error) {
	return datasheet.Compare(datasheet.DDR3)
}

// BatchOptions configures the shared batch-evaluation engine behind the
// *Parallel entry points: Workers is the worker-pool size (<= 0 means one
// worker per CPU, 1 reproduces the serial evaluation exactly). Results are
// deterministic — ordered by job, independent of the worker count.
type BatchOptions = engine.Options

// SweepParallel is Sweep on a worker pool. The results are byte-identical
// to Sweep's for any worker count.
func SweepParallel(d *Description, opts BatchOptions) ([]SensitivityResult, error) {
	return sensitivity.SweepOpts(d, opts)
}

// EvaluateSchemesParallel is EvaluateSchemes on a worker pool.
func EvaluateSchemesParallel(base *Description, opts BatchOptions) ([]SchemeResult, error) {
	return schemes.EvaluateOpts(base, opts)
}

// CompareDatasheetDDR3Parallel is CompareDatasheetDDR3 on a worker pool.
func CompareDatasheetDDR3Parallel(opts BatchOptions) ([]DatasheetComparison, error) {
	return datasheet.CompareOpts(datasheet.DDR3, opts)
}

// TrendPoint is one generation of the Figure 13 energy/area trend.
type TrendPoint = scaling.TrendPoint

// GenerationTrend builds every roadmap node (concurrently per opts) and
// reports the Figure 13 energy-per-bit and die-area series with
// per-generation reduction ratios.
func GenerationTrend(opts BatchOptions) ([]TrendPoint, error) {
	return scaling.EnergyTrend(opts)
}

// EvalBatch builds and evaluates many descriptions on a worker pool and
// returns each description's pattern evaluation in input order. On failure
// it returns the first error (by input position) together with the partial
// results: entries whose build failed are nil, the rest are valid.
func EvalBatch(ds []*Description, opts BatchOptions) ([]*PatternResult, error) {
	return engine.Map(ds, func(_ int, d *Description) (*PatternResult, error) {
		m, err := core.Build(d)
		if err != nil {
			return nil, err
		}
		return m.Evaluate(), nil
	}, opts)
}

// Re-exported trace types: the timing-validated command-trace simulator
// and the streaming/replay layer on top of it.
type (
	// Simulator executes command traces with JEDEC timing checks and
	// integrates energy.
	Simulator = trace.Simulator
	// Command is one trace entry.
	Command = trace.Command
	// TraceResult summarizes a finished trace.
	TraceResult = trace.Result
	// TraceScanner streams a trace text file (<slot> <op> [<bank>
	// [<row>]], '#' comments) without materializing it; see
	// internal/trace for the format.
	TraceScanner = trace.Scanner
	// BinaryTraceScanner streams the compact dtb binary trace encoding
	// (magic+version header, varint-delta slots, packed op/bank/row);
	// see internal/trace for the layout.
	BinaryTraceScanner = trace.BinaryScanner
	// BinaryTraceWriter encodes commands into the dtb binary format.
	BinaryTraceWriter = trace.BinaryWriter
	// TraceSource is a command stream: the common interface of
	// TraceScanner and BinaryTraceScanner that the replayer consumes.
	TraceSource = trace.Source
	// Replayer shards a multi-channel trace across one simulator per
	// channel and replays the channels concurrently.
	Replayer = trace.Replayer
	// ReplayOptions selects the channel count and worker pool of a
	// replay.
	ReplayOptions = trace.ReplayOptions
)

// NewSimulator creates a trace simulator for the model.
func NewSimulator(m *Model) *Simulator { return trace.New(m) }

// StreamingWorkload generates an open-page streaming trace (IDD4-like).
func StreamingWorkload(m *Model, bursts int, readShare float64, seed int64) []Command {
	return trace.Streaming(m, bursts, readShare, seed)
}

// RandomClosedPageWorkload generates a closed-page random-access trace
// (IDD7-like).
func RandomClosedPageWorkload(m *Model, accesses int, readShare float64, seed int64) []Command {
	return trace.RandomClosedPage(m, accesses, readShare, seed)
}

// RefreshOnlyWorkload generates the standby-with-refresh trace over the
// given number of refresh intervals (IDD2N-like until combined with
// InsertPowerDown).
func RefreshOnlyWorkload(m *Model, intervals int) []Command {
	return trace.RefreshOnly(m, intervals)
}

// InsertPowerDown inserts power-down entry/exit pairs into every idle gap
// of at least minIdle slots of a sorted single-channel trace, keeping the
// result timing-legal (tCKEmin residency, tXP exit-to-valid). minIdle < 1
// selects the smallest insertable window. This is the controller-side
// power-management policy of the paper's Section V applied to a trace:
// the returned trace's background energy drops by the power-down
// residency times PowerDownSavings.
func InsertPowerDown(m *Model, cmds []Command, minIdle int64) []Command {
	return trace.WithPowerDown(m, cmds, minIdle)
}

// RunTrace executes a trace against the model and reports the energy
// accounting.
func RunTrace(m *Model, cmds []Command) (TraceResult, error) {
	return trace.Evaluate(m, cmds)
}

// NewTraceScanner returns a streaming scanner over trace text. Feed it to
// Simulator.RunStream or Replayer.ReplayScanner to evaluate traces of any
// length in constant memory.
func NewTraceScanner(r io.Reader) *TraceScanner { return trace.NewScanner(r) }

// NewReplayer creates a multi-channel trace replayer for the model.
func NewReplayer(m *Model, opts ReplayOptions) *Replayer {
	return trace.NewReplayer(m, opts)
}

// ReplayTrace streams a command trace from r against the model — text or
// dtb binary, sniffed from the first byte — sharded across opts.Channels
// channels replayed concurrently by opts.Workers workers, and reports the
// deterministically merged result. Decode is pipelined with simulation
// (round N+1 decodes while round N issues). With one channel the energy
// totals are bit-identical to RunTrace on the materialized commands.
func ReplayTrace(m *Model, r io.Reader, opts ReplayOptions) (TraceResult, error) {
	return trace.Replay(m, r, opts)
}

// WriteTrace renders commands in the trace text format; the output
// round-trips through NewTraceScanner.
func WriteTrace(w io.Writer, cmds []Command) error { return trace.WriteTrace(w, cmds) }

// NewBinaryTraceScanner returns a streaming scanner over the dtb binary
// trace encoding. It yields exactly the Command stream the text scanner
// yields for the equivalent text trace, at several times the decode rate.
func NewBinaryTraceScanner(r io.Reader) *BinaryTraceScanner { return trace.NewBinaryScanner(r) }

// NewBinaryTraceWriter returns a buffered dtb binary trace encoder over
// w (the header is written immediately; call Flush when done).
func NewBinaryTraceWriter(w io.Writer) *BinaryTraceWriter { return trace.NewBinaryWriter(w) }

// WriteBinaryTrace renders commands in the dtb binary trace format; the
// output round-trips through NewBinaryTraceScanner.
func WriteBinaryTrace(w io.Writer, cmds []Command) error { return trace.WriteBinaryTrace(w, cmds) }

// NewTraceSource returns a command stream over either trace encoding,
// sniffing text vs. dtb binary from the first byte. ReplayTrace does
// this internally; use NewTraceSource to feed format-agnostic input to a
// Replayer or Simulator directly.
func NewTraceSource(r io.Reader) TraceSource { return trace.NewSource(r) }

// InterleaveChannels merges per-channel traces into one multi-channel
// trace with global bank indices (channel ch's bank b becomes bank
// ch*banksPerChannel+b), ordered by slot.
func InterleaveChannels(channels [][]Command, banksPerChannel int) []Command {
	return trace.Interleave(channels, banksPerChannel)
}

// Re-exported controller types: the memory-controller front-end behind
// the dramctl binary (see internal/ctl). The controller consumes an
// access trace — timestamped read/write requests against a flat address
// space — and schedules it into a legal command trace for the replayer,
// under a configurable address map, page policy and power-down policy.
type (
	// AccessRequest is one access-trace entry: a read or write of one
	// burst at a flat physical address, arriving at a control-clock slot.
	AccessRequest = ctl.Request
	// AccessScanner streams the access-trace text format (<slot> <r|w>
	// <addr>, '#' comments).
	AccessScanner = ctl.Scanner
	// BinaryAccessScanner streams the .dab binary access-trace encoding.
	BinaryAccessScanner = ctl.BinaryScanner
	// AccessSource is a request stream: the common interface of the two
	// access scanners that the controller consumes.
	AccessSource = ctl.Source
	// Controller schedules one access stream into a command trace.
	Controller = ctl.Controller
	// ControllerOptions selects the page policy, address map, channel
	// count, power-down policy and refresh policy of a scheduling run.
	// Refresh scheduling is on by default when the device spec carries a
	// refresh interval: an all-bank ref every tREFI per channel,
	// postponed JEDEC-style (up to MaxPostponedRefreshes) while requests
	// are in flight.
	ControllerOptions = ctl.Options
	// ControllerPolicy is the page-management policy (open, closed or
	// timeout).
	ControllerPolicy = ctl.Policy
	// ScheduleStats summarizes a scheduling run: row-buffer outcomes,
	// command counts and low-power insertions.
	ScheduleStats = ctl.Stats
	// ScheduleError reports a request the scheduler cannot place.
	ScheduleError = ctl.ScheduleError
	// AddressMapper is the configurable flat-address → (channel, bank,
	// row, column) bit interleave.
	AddressMapper = ctl.Mapper
	// AccessGenOptions configures GenerateAccesses, including the RowHit
	// locality knob.
	AccessGenOptions = ctl.GenOptions
)

// Controller page policies (see ParseControllerPolicy for the flag
// spellings).
const (
	PolicyOpenPage    = ctl.PolicyOpen
	PolicyClosedPage  = ctl.PolicyClosed
	PolicyPageTimeout = ctl.PolicyTimeout
)

// DefaultAddressMap is the controller's default interleave spec: row
// above bank above channel above column, so consecutive addresses walk
// one open row.
const DefaultAddressMap = ctl.DefaultMap

// NewController builds a memory-controller model. The zero options mean
// open-page policy, the default "ro:ba:ch:co" address map, one channel
// and no power-down.
func NewController(m *Model, opts ControllerOptions) (*Controller, error) {
	return ctl.NewController(m, opts)
}

// ScheduleTrace schedules an access trace read from r (text or .dab
// binary, sniffed from the first byte) into a legal command trace with
// global bank indices, plus scheduling stats. The result is
// deterministic: same input and options, byte-identical trace.
func ScheduleTrace(m *Model, r io.Reader, opts ControllerOptions) ([]Command, ScheduleStats, error) {
	return ctl.Schedule(m, r, opts)
}

// ScheduleAccesses schedules an in-memory access-request slice.
func ScheduleAccesses(m *Model, reqs []AccessRequest, opts ControllerOptions) ([]Command, ScheduleStats, error) {
	return ctl.ScheduleRequests(m, reqs, opts)
}

// ScheduleAndReplay schedules an access trace and replays it as it is
// scheduled — the fused pipeline: scheduling and energy accounting
// overlap, the merged command slice never exists, and the stats and
// energy result are bit-identical to ScheduleTrace followed by a replay
// of the materialized trace (the accounting ends one burst after the
// last command, like ReplayTrace). The replayer inherits the
// controller's channel count; ropts selects its worker pool.
func ScheduleAndReplay(m *Model, r io.Reader, opts ControllerOptions, ropts ReplayOptions) (ScheduleStats, TraceResult, error) {
	return ctl.ScheduleReplay(m, r, opts, ropts)
}

// ParseControllerPolicy parses a page-policy flag value: "open",
// "closed" or "timeout=N" (N the idle window in slots, returned
// separately).
func ParseControllerPolicy(s string) (ControllerPolicy, int64, error) {
	return ctl.ParsePolicy(s)
}

// NewAccessScanner returns a streaming scanner over access-trace text.
func NewAccessScanner(r io.Reader) *AccessScanner { return ctl.NewScanner(r) }

// NewBinaryAccessScanner returns a streaming scanner over the .dab
// binary access-trace encoding.
func NewBinaryAccessScanner(r io.Reader) *BinaryAccessScanner { return ctl.NewBinaryScanner(r) }

// NewAccessSource returns a request stream over either access-trace
// encoding, sniffing text vs. .dab binary from the first byte.
func NewAccessSource(r io.Reader) AccessSource { return ctl.NewAccessSource(r) }

// WriteAccessTrace renders requests in the access-trace text format; the
// output round-trips through NewAccessScanner.
func WriteAccessTrace(w io.Writer, reqs []AccessRequest) error {
	return ctl.WriteAccessTrace(w, reqs)
}

// WriteBinaryAccessTrace renders requests in the .dab binary access
// format; the output round-trips through NewBinaryAccessScanner.
func WriteBinaryAccessTrace(w io.Writer, reqs []AccessRequest) error {
	return ctl.WriteBinaryAccessTrace(w, reqs)
}

// GenerateAccesses builds a deterministic synthetic access stream whose
// RowHit knob sweeps the row-locality spectrum the paper's policy
// comparisons turn on.
func GenerateAccesses(m *Model, opts AccessGenOptions) ([]AccessRequest, error) {
	return ctl.GenerateAccesses(m, opts)
}

// Re-exported serving types: the HTTP model-evaluation service behind the
// dramserved binary (see internal/server).
type (
	// Server is the HTTP service: JSON evaluation endpoints over a
	// model cache, bounded admission queue and built-in metrics.
	Server = server.Server
	// ServerOptions configures cache size, admission limits, timeouts,
	// body limits, worker pool and access logging; the zero value
	// serves with production defaults.
	ServerOptions = server.Options
)

// NewServer creates the HTTP model-evaluation service. Mount it with
// Handler(), run it with Serve(ctx, listener, drainTimeout), and release
// its worker pool with Close(). Responses are bit-identical to the
// corresponding direct library calls.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// ModelKey derives the server's model-cache key for a description: the
// SHA-256 hex of the canonical Format(d) rendering. POST /v1/evaluate
// returns it as model_key, and POST /v1/trace?model=<key> replays traces
// against the cached model.
func ModelKey(d *Description) string { return server.DescriptorKey(d) }

// ModelKeyCalibrated derives the server's model-cache key for a
// description plus a calibration overlay. An empty overlay collapses
// onto ModelKey; a non-empty one yields a distinct key, so calibrated and
// uncalibrated models never share a cache entry.
func ModelKeyCalibrated(d *Description, ov *Overlay) string { return server.CalibratedKey(d, ov) }
