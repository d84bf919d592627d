package main

import (
	"bytes"
	"fmt"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/sensitivity"
	"drampower/internal/server"
	"drampower/internal/trace"
)

// sizes fixes how much work one workload input carries. The benchmark
// runs fullSizes; the tests shrink them.
type sizes struct {
	evalSeq   int // evaluate-mix: requests in one pass of the body sequence
	evalHot   int // evaluate-mix: hot descriptors that repeat
	traceReqs int // trace-replay: access requests scheduled into each body
	schedReqs int // schedule-replay: access requests per body
	probeReqs int // access requests of the probe stream on evaluate-mix
	bodies    int // distinct bodies of the three trace workloads
	setups    int // fresh set-ups per untraced run; setup_s is their median
}

var fullSizes = sizes{
	evalSeq:   2048,
	evalHot:   8,
	traceReqs: 512 << 10,
	schedReqs: 256 << 10,
	probeReqs: 32 << 10,
	bodies:    4,
	setups:    31,
}

// Shape of every generated access stream: four channels, a read share of
// 0.7, one request every few slots, and power-down after 32 idle slots.
const (
	channels    = 4
	readShare   = 0.7
	arrivalGap  = 6
	pdTimeout   = 32
	uniqueEvery = 4 // evaluate-mix: one request in four is a unique descriptor
)

// scheduleQuery is the /v1/schedule query of schedule-replay; its
// options must equal schedOptions.
var scheduleQuery = fmt.Sprintf("/v1/schedule?replay=on&channels=%d&pd_timeout=%d", channels, pdTimeout)

func schedOptions(workers int) ctl.Options {
	return ctl.Options{Channels: channels, PowerDownAfter: pdTimeout, Workers: workers}
}

// rng is splitmix64: small, seedable and stable across Go releases, so a
// seed names the same inputs on every machine.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// inputs is one workload's generated input set: the request bodies, the
// closed-loop order in which they are sent, and the expected response of
// each body, computed by an independent serial path.
type inputs struct {
	bodies [][]byte
	seq    []int    // request k sends bodies[seq[k%len(seq)]]
	warm   []int    // bodies sent during set-up, before the first timed request
	want   [][]byte // expected response bytes

	// The workload's access stream and its scheduled command trace feed
	// the per-layer probes; evaluate-mix carries a smaller probe stream.
	reqs      []ctl.Request
	cmds      []trace.Command
	stats     ctl.Stats
	accessDab []byte // reqs as a .dab body
	traceDtb  []byte // cmds as a dtb body
}

// sampleModel builds the built-in 1 Gb DDR3 device, the model every
// trace workload runs against (and the server's default model).
func sampleModel() (*core.Model, error) { return core.Build(desc.Sample1GbDDR3()) }

// encodeJSON renders v exactly as the server's response writer does.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := encodeTo(&buf, v)
	return buf.Bytes(), err
}

// genEvaluate draws the evaluate-mix bodies: sz.evalHot hot descriptors
// and one unique descriptor per uniqueEvery requests, each a seeded
// ±15 % perturbation of one sensitivity.Registry parameter. The unique
// positions are an exact share of the sequence, shuffled by the seed, so
// every seed costs the same mix of cache hits and builds.
func genEvaluate(seed uint64, sz sizes) (*inputs, error) {
	r := &rng{s: seed}
	reg := sensitivity.Registry()
	seen := map[string]bool{}
	in := &inputs{}
	perturb := func(base *desc.Description) (*desc.Description, error) {
		for try := 0; try < 100; try++ {
			d := base.Clone()
			reg[r.intn(len(reg))].Apply(d, 0.85+0.3*r.float())
			text := desc.Format(d)
			if seen[text] {
				continue
			}
			parsed, err := desc.ParseString(text)
			if err != nil {
				continue
			}
			m, err := core.Build(parsed)
			if err != nil {
				continue
			}
			want, err := encodeJSON(server.EvaluateResponseFor(m, server.DescriptorKey(parsed)))
			if err != nil {
				return nil, err
			}
			seen[text] = true
			in.bodies = append(in.bodies, []byte(text))
			in.want = append(in.want, want)
			return parsed, nil
		}
		return nil, fmt.Errorf("no buildable perturbation after 100 draws")
	}
	var hot []*desc.Description
	for i := 0; i < sz.evalHot; i++ {
		d, err := perturb(desc.Sample1GbDDR3())
		if err != nil {
			return nil, err
		}
		hot = append(hot, d)
		in.warm = append(in.warm, i)
	}
	pos := make([]int, sz.evalSeq)
	for i := range pos {
		pos[i] = i
	}
	for i := len(pos) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		pos[i], pos[j] = pos[j], pos[i]
	}
	in.seq = make([]int, sz.evalSeq)
	for i := range in.seq {
		in.seq[i] = r.intn(sz.evalHot)
	}
	for _, p := range pos[:sz.evalSeq/uniqueEvery] {
		if _, err := perturb(hot[r.intn(len(hot))]); err != nil {
			return nil, err
		}
		in.seq[p] = len(in.bodies) - 1
	}
	m, err := sampleModel()
	if err != nil {
		return nil, err
	}
	return in, in.addProbeStream(m, seed, sz.probeReqs)
}

// accessStream draws n requests over four channels at row-hit rate 0.5:
// the mixed-locality stream every trace workload is built from.
func accessStream(m *core.Model, seed uint64, n int) ([]ctl.Request, error) {
	return ctl.GenerateAccesses(m, ctl.GenOptions{
		N: n, RowHit: 0.5, ReadShare: readShare, Gap: arrivalGap, Seed: seed, Channels: channels,
	})
}

// addProbeStream schedules a seeded access stream serially (one worker)
// and keeps it, its command trace and both binary encodings for the
// per-layer probes.
func (in *inputs) addProbeStream(m *core.Model, seed uint64, n int) error {
	reqs, err := accessStream(m, seed, n)
	if err != nil {
		return err
	}
	cmds, stats, err := ctl.ScheduleRequests(m, reqs, schedOptions(1))
	if err != nil {
		return err
	}
	var dab, dtb bytes.Buffer
	if err := ctl.WriteBinaryAccessTrace(&dab, reqs); err != nil {
		return err
	}
	if err := trace.WriteBinaryTrace(&dtb, cmds); err != nil {
		return err
	}
	in.reqs, in.cmds, in.stats = reqs, cmds, stats
	in.accessDab, in.traceDtb = dab.Bytes(), dtb.Bytes()
	return nil
}

// genStreams builds sz.bodies seeded access streams of n requests each,
// keeping the first for the probes, and lets body turn each stream into
// its request body and expected response.
func genStreams(seed uint64, n int, sz sizes, body func(m *core.Model, in *inputs) (req, want []byte, err error)) (*inputs, error) {
	m, err := sampleModel()
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	r := &rng{s: seed}
	var first *inputs
	for b := 0; b < sz.bodies; b++ {
		one := &inputs{}
		if err := one.addProbeStream(m, r.next(), n); err != nil {
			return nil, err
		}
		req, want, err := body(m, one)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = one
		}
		in.bodies = append(in.bodies, req)
		in.want = append(in.want, want)
		in.seq = append(in.seq, b)
	}
	in.warm = []int{0}
	in.reqs, in.cmds, in.stats = first.reqs, first.cmds, first.stats
	in.accessDab, in.traceDtb = first.accessDab, first.traceDtb
	return in, nil
}

// genTraceReplay: dtb bodies of scheduled streams. The reference replays
// the materialized commands channel by channel on one worker.
func genTraceReplay(seed uint64, sz sizes) (*inputs, error) {
	return genStreams(seed, sz.traceReqs, sz, func(m *core.Model, one *inputs) ([]byte, []byte, error) {
		res, err := replayMaterialized(m, one.cmds)
		if err != nil {
			return nil, nil, err
		}
		want, err := encodeJSON(server.TraceResponseFor(res, server.DescriptorKey(m.D), channels))
		return one.traceDtb, want, err
	})
}

// shardByChannel splits a multi-channel trace into per-channel traces
// with channel-local bank indices.
func shardByChannel(m *core.Model, cmds []trace.Command) [][]trace.Command {
	banks := m.D.Spec.Banks()
	shards := make([][]trace.Command, channels)
	for _, c := range cmds {
		ch := c.Bank / banks
		c.Bank -= ch * banks
		shards[ch] = append(shards[ch], c)
	}
	return shards
}

// replayMaterialized is the serial reference replay: shard the command
// slice by channel and run each channel's simulator in turn.
func replayMaterialized(m *core.Model, cmds []trace.Command) (trace.Result, error) {
	rep := trace.NewReplayer(m, trace.ReplayOptions{Channels: channels, Workers: 1})
	for ch, s := range shardByChannel(m, cmds) {
		if err := rep.RunChannel(ch, s); err != nil {
			return trace.Result{}, err
		}
	}
	return rep.Result(rep.Now() + int64(m.BurstSlots())), nil
}

// genScheduleReplay: .dab bodies for POST /v1/schedule?replay=on. The
// reference is the two-phase path: schedule on one worker, then replay
// the materialized trace; it must show no timing violation and no missed
// refresh deadline.
func genScheduleReplay(seed uint64, sz sizes) (*inputs, error) {
	return genStreams(seed, sz.schedReqs, sz, func(m *core.Model, one *inputs) ([]byte, []byte, error) {
		res, err := replayMaterialized(m, one.cmds)
		if err != nil {
			return nil, nil, fmt.Errorf("reference replay: %w", err)
		}
		if res.MissedRefreshDeadlines != 0 {
			return nil, nil, fmt.Errorf("reference schedule missed %d refresh deadlines", res.MissedRefreshDeadlines)
		}
		c, err := ctl.NewController(m, schedOptions(1))
		if err != nil {
			return nil, nil, err
		}
		resp := server.ScheduleResponseFor(one.stats, res, server.DescriptorKey(m.D), channels, "open", c.Mapper().Spec())
		want, err := encodeJSON(resp)
		return one.accessDab, want, err
	})
}
