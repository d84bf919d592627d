GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race bench bench-all bench-gate check serve-smoke fuzz-short legality legality-race lint

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is optional locally (skipped
# with a note when not installed); CI installs it and runs this as its
# own job, so lint findings fail the build there.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Trace + engine + server benchmarks, snapshotted into BENCH_trace.json
# (ns/op, allocs/op, cmds/s, MB/s, req/s) so future PRs have a perf
# trajectory to compare against. The human-readable output still lands
# on stderr.
bench:
	$(GO) test -run '^$$' -bench 'Trace|Sweep|Server|Schedule' -benchmem . \
		| $(GO) run ./tools/benchjson -echo > BENCH_trace.json

# Regression gate: rerun the bench snapshot into a scratch file and
# compare it against the committed BENCH_trace.json; >10% regressions in
# ns/op or cmds/s fail the build. Override BENCH_THRESHOLD for noisier
# runners. The -floor lines compare benchmarks from the same run
# (machine-independent). The first pins the sharded scheduler against its
# own serial baseline: parallel scheduling may never fall below 0.9x
# serial — on a single-core runner the engine's serial fallback makes the
# two coincide, and on multi-core any sharding overhead regression fails
# the gate. The other two pin the two users of the streaming ring
# (internal/pipe) against their own decoders: dtb replay against dtb
# decode alone, fused schedule+replay against access-text decode alone.
# Their factors sit at or below 0.8x the lowest ratio measured over 10
# runs each at GOMAXPROCS=1 and 2 (0.45 and 0.63), so only a real
# pipeline regression trips them.
BENCH_THRESHOLD ?= 10
BENCH_FLOORS = \
	-floor 'BenchmarkSchedule4ChParallel:req/s>=0.9*BenchmarkSchedule4Ch:req/s' \
	-floor 'BenchmarkTraceReplay1ChBinary:cmds/s>=0.35*BenchmarkTraceScanBinary:cmds/s' \
	-floor 'BenchmarkScheduleReplayFused:req/s>=0.5*BenchmarkScheduleScanAccess:req/s'
bench-gate:
	$(GO) test -run '^$$' -bench 'Trace|Sweep|Server|Schedule' -benchmem . \
		| $(GO) run ./tools/benchjson > BENCH_new.json
	$(GO) run ./tools/benchjson -compare BENCH_trace.json -threshold $(BENCH_THRESHOLD) \
		$(BENCH_FLOORS) BENCH_new.json

# Every benchmark in the repo (the full reproduction log).
bench-all:
	$(GO) test -bench=. -benchmem .

# Black-box smoke of the HTTP service: builds dramserved, starts it on a
# random port, exercises every endpoint (including a 429 overload case),
# then SIGTERMs it and checks the graceful drain.
serve-smoke:
	$(GO) run ./tools/servesmoke

# Short fuzz passes over the hand-written parsers; go's fuzzer runs one
# target per invocation, hence one line each. Override FUZZTIME for a
# longer hunt.
fuzz-short:
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/desc/
	$(GO) test -fuzz FuzzOverlay -fuzztime $(FUZZTIME) -run '^$$' ./internal/desc/
	$(GO) test -fuzz FuzzTraceScanner -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzBinaryScanner -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzAccessScanner -fuzztime $(FUZZTIME) -run '^$$' ./internal/ctl/

# Retention legality sweep: every page policy × address map × channel
# count × low-power combination is scheduled and replayed — both
# two-phase and through the fused streaming pipeline — asserting zero
# timing violations, zero missed tREFI deadlines, and fused/two-phase
# bit-identity. Part of the regular test pass too; this target runs it
# uncached and on its own so the refresh-scheduler contract has a named
# gate.
LEGALITY_TESTS = TestScheduledTraceLegalitySweep|TestRefreshSurvivesPowerDown|TestFusedMatchesTwoPhase|TestScheduleParallelMatchesSerial
legality:
	$(GO) test ./internal/ctl -run '$(LEGALITY_TESTS)' -count=1

# The same sweep under the race detector, plus the pipeline's error-path
# shutdown tests: proves the sharded schedule → replay handoff is
# properly synchronized, including mid-stream source and sink failures.
legality-race:
	$(GO) test -race ./internal/ctl -run '$(LEGALITY_TESTS)|TestScheduleInto' -count=1

# The full gate: everything CI (and a reviewer) expects to be green.
# CI runs the race detector as its own job (ci.yml "race"), so check
# keeps the fast non-instrumented test pass.
check: build vet test legality serve-smoke fuzz-short
