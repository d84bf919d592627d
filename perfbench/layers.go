package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"time"

	"drampower/internal/core"
	"drampower/internal/ctl"
	"drampower/internal/desc"
	"drampower/internal/server"
	"drampower/internal/trace"
)

// tracedRun gives the per-layer numbers. Its budget splits in three: an
// untraced closed loop (the baseline for trace_overhead_frac and the
// runtime counters), the same loop with spans, and probes that call each
// module's public functions from outside, on this workload's inputs,
// with a span around every call. Every per-layer time is a median of
// span self times.
func tracedRun(w *workload, in *inputs, dur time.Duration, tr *tracer, log io.Writer) (result, error) {
	inst, _, err := setUp(w, in)
	if err != nil {
		return result{}, err
	}
	rt0 := readRuntime()
	plain := closedLoop(inst, in, dur*4/10, nil)
	rt1 := readRuntime()
	traced := closedLoop(inst, in, dur*3/10, tr)
	if err := inst.close(); err != nil {
		return result{}, err
	}

	p := &prober{tr: tr, budget: dur * 3 / 10 / numProbes}
	counts, err := p.run(w, in)
	if err != nil {
		return result{}, err
	}
	self := tr.selfTimes()
	out := layerMetrics(self, in, counts)
	n := float64(plain.attempted)
	out["runtime.gc_per_req"] = (rt1.gcs - rt0.gcs) / n
	out["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu)
	out["runtime.alloc_kb_per_req_mean"] = (rt1.allocs - rt0.allocs) / n / 1024
	out["client.latency_p50_ms"] = quantile(plain.lat, 0.5) / 1e6
	out["client.latency_p90_ms"] = quantile(plain.lat, 0.9) / 1e6
	out["client.req_per_s"] = perSecond(plain.lat)
	out["trace_overhead_frac"] = 1 - perSecond(traced.cpu)/perSecond(plain.cpu)
	self.print(log)

	res := result{
		Attempted: plain.attempted + traced.attempted + p.attempted,
		Failed:    plain.failed + traced.failed + p.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	for _, m := range perLayer {
		v, ok := out[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// serverCounts are the probe server's counter deltas.
type serverCounts struct{ requests, hits, misses, builds, rejected float64 }

// layerMetrics derives the per-layer metrics from span self times (ns).
// The work per call is the workload's trace (commands) or access stream
// (requests).
func layerMetrics(self layerTimes, in *inputs, sc serverCounts) map[string]float64 {
	cmds, reqs := float64(len(in.cmds)), float64(len(in.reqs))
	perSec := func(units float64, name string) float64 { return units / (self.median(name) / 1e9) }
	st := in.stats
	return map[string]float64{
		"server.handler_ms":             self.median("probe.server.handler") / 1e6,
		"server.transport_ms":           self.median("client.post") / 1e6,
		"server.key_us":                 self.median("server.key") / 1e3,
		"server.encode_us":              self.median("server.encode") / 1e3,
		"server.cache_hit_ratio":        ratio(sc.hits, sc.hits+sc.misses),
		"server.builds_per_req":         ratio(sc.builds, sc.requests),
		"server.rejected_frac":          ratio(sc.rejected, sc.requests),
		"desc.parse_us":                 self.median("desc.parse") / 1e3,
		"core.build_ms":                 self.median("core.build") / 1e6,
		"core.evaluate_us":              self.median("core.evaluate") / 1e3,
		"trace.decode_cmds_per_s":       perSec(cmds, "trace.decode"),
		"trace.issue_cmds_per_s":        perSec(cmds, "trace.issue"),
		"trace.replay_cmds_per_s":       perSec(cmds, "trace.replay"),
		"trace.replay_over_decode":      self.median("trace.decode") / self.median("trace.replay"),
		"trace.replay_parallel_speedup": self.median("trace.replay_1worker") / self.median("trace.replay"),
		"trace.interleave_cmds_per_s":   perSec(cmds, "trace.interleave"),
		"trace.encode_cmds_per_s":       perSec(cmds, "trace.encode"),
		"ctl.decode_reqs_per_s":         perSec(reqs, "ctl.decode"),
		"ctl.schedule_reqs_per_s":       perSec(reqs, "ctl.schedule"),
		"ctl.fused_reqs_per_s":          perSec(reqs, "ctl.fused"),
		"ctl.schedule_parallel_speedup": self.median("ctl.schedule_1worker") / self.median("ctl.schedule"),
		"ctl.materialize_reqs_per_s":    perSec(reqs, "ctl.materialize"),
		"ctl.cmds_per_req":              float64(st.Commands) / float64(st.Requests),
		"ctl.row_hit_rate":              st.RowHitRate(),
		"ctl.refreshes_per_req":         float64(st.Refreshes) / float64(st.Requests),
	}
}

// print writes each span name's call count and median self time.
func (l layerTimes) print(w io.Writer) {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "span %-26s %7d calls  median self %12.1f us\n", name, len(l[name]), l.median(name)/1e3)
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample holds cumulative runtime/metrics values. The CPU classes
// are estimates the runtime refreshes at each GC, so over a window with
// no GC both CPU deltas are 0.
type runtimeSample struct{ allocs, gcs, gcCPU, cpu float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocs: float64(s[0].Value.Uint64()),
		gcs:    float64(s[1].Value.Uint64()),
		gcCPU:  s[2].Value.Float64(),
		cpu:    s[3].Value.Float64(),
	}
}

// numProbes is the number of probe loops; each gets an equal share of the
// probe budget.
const numProbes = 18

// prober runs one loop per layer call, each call a root span named after
// the layer with its own (negative) request id.
type prober struct {
	tr                *tracer
	budget            time.Duration
	span, req         int64 // the open root span and its request id
	attempted, failed int
}

// loop calls f until the budget is spent, at least minIters and at most
// maxIters times. f reports whether its result was right; a wrong result
// or an error counts as a failure.
func (p *prober) loop(name string, f func() (bool, error)) {
	const minIters, maxIters = 3, 2000
	start := time.Now()
	for i := 0; i < minIters || (i < maxIters && time.Since(start) < p.budget); i++ {
		p.req--
		p.span = p.tr.begin(name, 0, p.req)
		ok, err := f()
		p.tr.end(p.span)
		p.attempted++
		if err != nil || !ok {
			p.failed++
		}
	}
}

func (p *prober) run(w *workload, in *inputs) (serverCounts, error) {
	sc, err := p.serverProbes(w, in)
	if err != nil {
		return sc, err
	}
	m, err := sampleModel()
	if err != nil {
		return sc, err
	}
	if err := p.modelProbes(w, in, m); err != nil {
		return sc, err
	}
	p.traceProbes(m, in)
	p.ctlProbes(m, in)
	return sc, nil
}

// serverProbes send the workload's bodies to the endpoint that serves
// them: in process through Handler().ServeHTTP, and over loopback, where
// the client.post span's self time (the round trip minus its
// server.handler child) is the transport time. The server's counters
// give the cache and admission ratios.
func (p *prober) serverProbes(w *workload, in *inputs) (serverCounts, error) {
	inst, err := startHTTP(w.path, w.ctype)
	if err != nil {
		return serverCounts{}, err
	}
	defer inst.close()
	for _, b := range in.warm {
		if _, err := inst.do(in.bodies[b], nil, 0, 0); err != nil {
			return serverCounts{}, fmt.Errorf("server probe warm-up: %w", err)
		}
	}
	reg := inst.srv.Metrics()
	read := func() serverCounts {
		c := func(name string) float64 { return float64(reg.Counter(name, "", "").Value()) }
		return serverCounts{
			hits:     c("dramserved_model_cache_hits_total"),
			misses:   c("dramserved_model_cache_misses_total"),
			builds:   c("dramserved_model_builds_total"),
			rejected: c("dramserved_rejected_total"),
		}
	}
	before := read()

	ok := func(b, code int, resp []byte) bool {
		return code == http.StatusOK && in.check(b, resp)
	}
	h := inst.srv.Handler()
	k := 0
	next := func() int {
		b := in.seq[k%len(in.seq)]
		k++
		return b
	}
	p.loop("probe.server.handler", func() (bool, error) {
		b := next()
		req := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(in.bodies[b]))
		req.Header.Set("Content-Type", w.ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return ok(b, rec.Code, rec.Body.Bytes()), nil
	})
	p.loop("probe.server.roundtrip", func() (bool, error) {
		b := next()
		resp, err := inst.do(in.bodies[b], p.tr, p.span, p.req)
		return err == nil && ok(b, http.StatusOK, resp), err
	})
	after := read()
	return serverCounts{
		requests: float64(k),
		hits:     after.hits - before.hits,
		misses:   after.misses - before.misses,
		builds:   after.builds - before.builds,
		rejected: after.rejected - before.rejected,
	}, nil
}

// modelProbes time the descriptor layers on the workload's descriptors
// (evaluate-mix) or the built-in sample (the trace workloads), and the
// JSON encoding of the workload's response.
func (p *prober) modelProbes(w *workload, in *inputs, sample *core.Model) error {
	texts := [][]byte{[]byte(desc.Format(desc.Sample1GbDDR3()))}
	if w.name == "evaluate-mix" {
		texts = in.bodies
	}
	ds := make([]*desc.Description, len(texts))
	keys := make([]string, len(texts))
	models := make([]*core.Model, len(texts))
	for i, t := range texts {
		d, err := desc.Parse(bytes.NewReader(t))
		if err != nil {
			return err
		}
		if models[i], err = core.Build(d); err != nil {
			return err
		}
		ds[i], keys[i] = d, server.DescriptorKey(d)
	}
	k := 0
	next := func() int { k++; return k % len(texts) }

	p.loop("desc.parse", func() (bool, error) {
		_, err := desc.Parse(bytes.NewReader(texts[next()]))
		return true, err
	})
	p.loop("server.key", func() (bool, error) {
		i := next()
		return server.DescriptorKey(ds[i]) == keys[i], nil
	})
	p.loop("core.build", func() (bool, error) {
		_, err := core.Build(ds[next()])
		return true, err
	})
	p.loop("core.evaluate", func() (bool, error) {
		m := models[next()]
		res := m.Evaluate()
		idd := m.IDD()
		return res.Power > 0 && idd.IDD0 > 0, nil
	})

	resp, err := responseValue(w, in, sample, models[0], keys[0])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	p.loop("server.encode", func() (bool, error) {
		buf.Reset()
		return true, encodeTo(&buf, resp)
	})
	return nil
}

// responseValue is the response the workload's server or facade path
// encodes as JSON.
func responseValue(w *workload, in *inputs, sample, first *core.Model, firstKey string) (any, error) {
	if w.name == "evaluate-mix" {
		return server.EvaluateResponseFor(first, firstKey), nil
	}
	res, err := replayMaterialized(sample, in.cmds)
	if err != nil {
		return nil, err
	}
	key := server.DescriptorKey(sample.D)
	if w.name == "trace-replay" {
		return server.TraceResponseFor(res, key, channels), nil
	}
	c, err := ctl.NewController(sample, schedOptions(1))
	if err != nil {
		return nil, err
	}
	return server.ScheduleResponseFor(in.stats, res, key, channels, "open", c.Mapper().Spec()), nil
}

// traceProbes time the command-trace layers on the workload's scheduled
// trace: decode alone, issue alone on pre-decoded per-channel slices,
// the pipelined replay on all workers and on one, the channel merge and
// the dtb write side.
func (p *prober) traceProbes(m *core.Model, in *inputs) {
	n := len(in.cmds)
	shards := shardByChannel(m, in.cmds)
	slab := make([]trace.Command, 1<<15)
	p.loop("trace.decode", func() (bool, error) {
		sc := trace.NewBinaryScanner(bytes.NewReader(in.traceDtb))
		total := 0
		for {
			k := sc.ScanBatch(slab)
			total += k
			if k < len(slab) {
				break
			}
		}
		return total == n, sc.Err()
	})
	p.loop("trace.issue", func() (bool, error) {
		rep := trace.NewReplayer(m, trace.ReplayOptions{Channels: channels, Workers: 1})
		for ch, s := range shards {
			if err := rep.RunChannel(ch, s); err != nil {
				return false, err
			}
		}
		return true, nil
	})
	replay := func(name string, workers int) {
		p.loop(name, func() (bool, error) {
			rep := trace.NewReplayer(m, trace.ReplayOptions{Channels: channels, Workers: workers})
			return true, rep.ReplaySource(trace.NewBinaryScanner(bytes.NewReader(in.traceDtb)))
		})
	}
	replay("trace.replay", 0)
	replay("trace.replay_1worker", 1)
	p.loop("trace.interleave", func() (bool, error) {
		return len(trace.Interleave(shards, m.D.Spec.Banks())) == n, nil
	})
	var buf bytes.Buffer
	p.loop("trace.encode", func() (bool, error) {
		buf.Reset()
		err := trace.WriteBinaryTrace(&buf, in.cmds)
		return buf.Len() == len(in.traceDtb), err
	})
}

// ctlProbes time the controller layers on the workload's access stream:
// .dab decode alone, streaming scheduling into ctl.Discard on all
// workers and on one, the fused schedule-replay sink and the
// materializing Controller.Schedule. Each call's stats must equal the
// reference's.
func (p *prober) ctlProbes(m *core.Model, in *inputs) {
	p.loop("ctl.decode", func() (bool, error) {
		sc := ctl.NewBinaryScanner(bytes.NewReader(in.accessDab))
		k := 0
		for sc.Scan() {
			k++
		}
		return k == len(in.reqs), sc.Err()
	})
	schedule := func(name string, workers int, sink func() ctl.Sink) {
		p.loop(name, func() (bool, error) {
			c, err := ctl.NewController(m, schedOptions(workers))
			if err != nil {
				return false, err
			}
			st, err := c.ScheduleInto(ctl.NewSliceSource(in.reqs), sink())
			return st == in.stats, err
		})
	}
	discard := func() ctl.Sink { return ctl.Discard }
	schedule("ctl.schedule", 0, discard)
	schedule("ctl.schedule_1worker", 1, discard)
	schedule("ctl.fused", 0, func() ctl.Sink {
		return ctl.ReplaySink(trace.NewReplayer(m, trace.ReplayOptions{Channels: channels}))
	})
	p.loop("ctl.materialize", func() (bool, error) {
		c, err := ctl.NewController(m, schedOptions(0))
		if err != nil {
			return false, err
		}
		cmds, st, err := c.Schedule(ctl.NewSliceSource(in.reqs))
		return st == in.stats && len(cmds) == len(in.cmds), err
	})
}
