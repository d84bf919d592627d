package ctl

// The fused schedule→replay pipeline: ScheduleInto streams bounded
// per-channel command batches into a Sink instead of materializing the
// merged trace, mirroring the replay engine's decode/simulate pipeline
// (trace.ReplaySource) — a demultiplexer goroutine fills round N+1 with
// per-channel request batches while the batch engine schedules round N's
// channels and hands each channel's commands to the sink, the two rounds
// double-buffered through the pipe.Run ring. Peak memory is O(round),
// not O(trace); with a trace.Replayer as the sink, scheduling and energy
// accounting overlap and the merged command slice never exists.
//
// Determinism carries over from the sharded Schedule path: each
// channel's command sequence is independent of round boundaries (the
// scheduler is a stateful per-channel loop, and splitting its input
// into batches changes nothing), the refresh-debt fixpoint runs after
// the last round exactly as Schedule's does, and the per-channel
// simulators accumulate in the same order as a two-phase
// schedule-then-replay run — so fused stats and energy are bit-identical
// to the materializing path. DESIGN §14 has the argument.

import (
	"io"
	"sync"

	"drampower/internal/core"
	"drampower/internal/engine"
	"drampower/internal/pipe"
	"drampower/internal/trace"
)

// Sink consumes the scheduled command stream channel by channel. One
// channel's batches arrive in trace order; batches for distinct channels
// may be delivered concurrently (from different engine workers), so a
// Sink aggregating across channels must either be channel-partitioned —
// like the replayer's per-channel simulators — or lock. The batch slice
// is reused after Consume returns: a sink that retains commands must
// copy them.
type Sink interface {
	Consume(channel int, batch []trace.Command) error
}

// Discard drops every batch: schedule-only runs that want stats without
// a trace or energy accounting.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Consume(int, []trace.Command) error { return nil }

// replaySink feeds each channel's batches to the matching per-channel
// simulator of a trace.Replayer.
type replaySink struct{ r *trace.Replayer }

func (s replaySink) Consume(ch int, batch []trace.Command) error {
	return s.r.RunChannel(ch, batch)
}

// ReplaySink returns a Sink that issues each channel's batches on the
// replayer's per-channel simulator (trace.Replayer.RunChannel). The
// replayer must have at least as many channels as the controller.
func ReplaySink(r *trace.Replayer) Sink { return replaySink{r} }

// schedBatch is the number of requests demultiplexed per pipeline round.
// A round expands to at most a few times this many commands, which
// bounds the fused path's memory regardless of trace length.
const schedBatch = 4096

// schedRound is one double-buffered demux round: per-channel request
// batches plus the terminal error, if the source ended inside this
// round. Rounds are pooled across ScheduleInto calls, so the steady
// state allocates nothing per round.
type schedRound struct {
	reqs [][]mappedReq
	n    int   // requests demultiplexed into this round
	err  error // terminal source/demux error (schedule the round, then report)
}

var schedRoundPool = sync.Pool{New: func() any { return new(schedRound) }}

// getSchedRound takes a pooled round sized for the channel count,
// retaining previously grown batch capacities.
func getSchedRound(channels int) *schedRound {
	r := schedRoundPool.Get().(*schedRound)
	for len(r.reqs) < channels {
		r.reqs = append(r.reqs, nil)
	}
	r.reqs = r.reqs[:channels]
	return r
}

// cmdBufs recycles the per-channel command batch buffers across
// ScheduleInto calls (each a few hundred KB once grown), keeping the
// fused path's per-call allocations to the controller itself.
var cmdBufsPool = sync.Pool{New: func() any { return new([][]trace.Command) }}

// fillSchedRound refills rnd (keeping its allocated capacity) with up to
// schedBatch demultiplexed requests, reporting whether the stream is
// exhausted (end of input or error — the round still carries the valid
// prefix demultiplexed before the error, which is scheduled for stats
// parity with the serial path). The demux position (*lastp, *idxp) is
// carried in locals and written back once per round: it lives on the
// heap, captured by the ring's fill closure, and per-request stores to
// it there made the fused benchmark 6-11% slower in paired runs on two
// vCPUs.
func (c *Controller) fillSchedRound(src Source, rnd *schedRound, lastp *int64, idxp *int) (terminal bool) {
	for i := range rnd.reqs {
		rnd.reqs[i] = rnd.reqs[i][:0]
	}
	rnd.n, rnd.err = 0, nil
	last, idx := *lastp, *idxp
	defer func() { *lastp, *idxp = last, idx }()
	for rnd.n < schedBatch {
		if !src.Scan() {
			rnd.err = src.Err()
			return true
		}
		req := src.Request()
		co, err := c.checkAndMap(req, idx, &last)
		if err != nil {
			rnd.err = err
			return true
		}
		rnd.reqs[co.Channel] = append(rnd.reqs[co.Channel],
			mappedReq{slot: req.Slot, row: int32(co.Row), bank: int32(co.Bank), write: req.Write})
		rnd.n++
		idx++
	}
	return false
}

// ScheduleInto schedules the access stream and streams the resulting
// commands into sink as bounded per-channel batches, never building the
// merged trace. The command sequences, stats and any sink-side
// accounting are bit-identical to Schedule's output fed through the
// sink afterwards; only the peak memory (O(round) versus O(trace)) and
// the overlap of scheduling with consumption differ.
//
// The first error wins deterministically: a sink error from the
// lowest-numbered failing channel of the earliest failing round, or the
// source/demux error that truncated the stream (the scheduled prefix's
// batches reach the sink first in both cases, exactly the requests the
// serial path would have counted). On a clean end of stream the refresh
// debt is retired (flushRefreshDebt) and each channel's final batch is
// delivered in channel order.
func (c *Controller) ScheduleInto(src Source, sink Sink) (Stats, error) {
	channels := len(c.chans)

	bufsp := cmdBufsPool.Get().(*[][]trace.Command)
	bufs := *bufsp
	for len(bufs) < channels {
		bufs = append(bufs, nil)
	}
	bufs = bufs[:channels]
	defer func() {
		*bufsp = bufs
		cmdBufsPool.Put(bufsp)
	}()

	rndA, rndB := getSchedRound(channels), getSchedRound(channels)
	defer func() {
		schedRoundPool.Put(rndA)
		schedRoundPool.Put(rndB)
	}()

	// One job per channel per round: schedule the channel's batch into
	// its (reused) command buffer and hand it to the sink. Sink errors
	// return as values so the lowest failing channel wins, mirroring the
	// replay pipeline's violation selection.
	eo := c.engineOpts()
	issue := func(i int, reqs []mappedReq) (error, error) {
		if len(reqs) == 0 {
			return nil, nil
		}
		ch := &c.chans[i]
		ch.cmds = bufs[i][:0]
		c.runChannel(ch, reqs)
		bufs[i] = ch.cmds
		return sink.Consume(i, ch.cmds), nil
	}

	// The demux position lives with the fill side of the ring: only the
	// producer goroutine touches src, last and idx.
	var last int64 = -1
	idx := 0
	fill := func(rnd *schedRound) bool { return c.fillSchedRound(src, rnd, &last, &idx) }
	err := pipe.Run(rndA, rndB, fill, func(rnd *schedRound) error {
		if rnd.n > 0 {
			sinkErrs, _ := engine.Map(rnd.reqs, issue, eo)
			for _, err := range sinkErrs {
				if err != nil {
					return err
				}
			}
		}
		return rnd.err
	})
	if err != nil {
		return c.sumStats(), err
	}

	// Clean end of stream: retire the refresh debt (the one cross-channel
	// step, after the barrier the ring's drain provides) and deliver the
	// final batches in channel order.
	for i := range c.chans {
		c.chans[i].cmds = bufs[i][:0]
	}
	c.flushRefreshDebt()
	for i := range c.chans {
		ch := &c.chans[i]
		bufs[i] = ch.cmds
		if len(ch.cmds) > 0 {
			if err := sink.Consume(i, ch.cmds); err != nil {
				return c.sumStats(), err
			}
		}
	}
	return c.sumStats(), nil
}

// ScheduleReplay schedules an access trace read from rd (text or .dab,
// sniffed) and replays it through per-channel simulators as it is
// scheduled — the fused pipeline. It returns the scheduling stats and
// the merged energy result, ending the accounting one burst after the
// last command, exactly like replaying the materialized trace with
// trace.Replay: stats, energies and counts are bit-identical to the
// two-phase path, while peak memory stays O(batch). The replayer's
// channel count is forced to the controller's.
func ScheduleReplay(m *core.Model, rd io.Reader, opts Options, ropts trace.ReplayOptions) (Stats, trace.Result, error) {
	return scheduleReplay(m, NewAccessSource(rd), opts, ropts)
}

// ScheduleReplayRequests is ScheduleReplay over an in-memory request
// slice.
func ScheduleReplayRequests(m *core.Model, reqs []Request, opts Options, ropts trace.ReplayOptions) (Stats, trace.Result, error) {
	return scheduleReplay(m, NewSliceSource(reqs), opts, ropts)
}

func scheduleReplay(m *core.Model, src Source, opts Options, ropts trace.ReplayOptions) (Stats, trace.Result, error) {
	c, err := NewController(m, opts)
	if err != nil {
		return Stats{}, trace.Result{}, err
	}
	ropts.Channels = c.Channels()
	r := trace.NewReplayer(m, ropts)
	stats, err := c.ScheduleInto(src, ReplaySink(r))
	if err != nil {
		return stats, trace.Result{}, err
	}
	return stats, r.Result(r.Now() + int64(m.BurstSlots())), nil
}
