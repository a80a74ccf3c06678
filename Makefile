# Development targets. `make check` is the PR gate: gofmt, vet, build, the full
# test suite, a race-detector pass over the concurrent packages (the
# experiment engine, its observability collector, the serving layer, and
# the memory controller) and over the simulator's concurrent forks of one
# checkpoint (TestConcurrentForks), a server smoke test over a real TCP listener, a
# run of examples/quickstart, a one-mix sweep through the STFM and TCM
# schedulers, a time-boxed native fuzz of the
# simulation-kernel differential, a compile of every benchmark, and a vet +
# compile + golden smoke of the nested bench/ module (the BENCHMARK.json
# harness) against the working tree. `make bench` refreshes the committed
# benchmark reports (BENCH_kernel.json, BENCH_memctrl.json, BENCH_sweep.json,
# BENCH_serve.json);
# `make bench-check` re-runs the benchmarks and fails if a host-stable derived
# figure (a speedup ratio, an allocation or cell count) worsened beyond the
# tolerance against those committed reports — run it alongside `make check`
# before sending a performance-sensitive PR. Absolute ns/op are a record, not a
# gate: compare them with bench/run.sh (interleaved pairs, medians).
# `make loc` prints the size figures CHANGES.md and ROADMAP.md quote (package
# sizes, checkpoint code, flags, Config fields), and `make testtime` the tier-1 suite's wall
# time per package.

GO ?= go

# Allowed worsening (percent) of a gated derived figure for bench-check.
# Generous because the committed baselines may come from a different machine
# and even a ratio of two best-of-N timings jitters; the gate exists to catch
# structural regressions (e.g. a kernel that stopped sleeping: idle_speedup
# 5x -> 1x), not scheduling noise. Allocation counts (the _allocs_per_op
# figures) and checkpoint bytes (snapshot_bytes_per_op) fail on any growth.
BENCH_TOLERANCE ?= 50

# Benchmark noise controls. The simulator is single-threaded, so benchmarks
# gain nothing from extra Ps; pinning GOMAXPROCS removes scheduler-migration
# jitter and makes the value recorded in each report's meta block meaningful
# across machines. BENCH_COUNT repeats each benchmark so benchjson can take
# the best run; raise it locally when a comparison looks noisy.
BENCH_GOMAXPROCS ?= 2
BENCH_COUNT ?= 3
BENCH_ENV = GOMAXPROCS=$(BENCH_GOMAXPROCS)

# The controller suite: five passes over all rows, 2M iterations of 20-300 ns
# per row and pass, instead of -count 5. A shared host slows everything for
# seconds at a time; consecutive repeats of one row all land in the same
# half second, passes spread them over the run so best-of-five finds a
# quiet one.
BENCH_MEMCTRL = for pass in 1 2 3 4 5; do $(BENCH_ENV) $(GO) test -run '^$$' -bench . -benchmem -benchtime 2000000x ./internal/memctrl || exit 1; done

.PHONY: check fmt vet build test race smoke fuzz chaos benchbuild benchmod bench bench-check loc testtime

check: fmt vet build test race smoke fuzz benchbuild benchmod

# fmt fails on any file gofmt would rewrite (it lists them).
fmt:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/exper/... ./internal/obs/... ./internal/memctrl/... ./internal/serve/...
	$(GO) test -race -run TestConcurrentForks ./internal/sim

# smoke boots the daemon on an ephemeral port through the real serving path
# (TCP listener, health check, one mix request, drain on cancel), runs
# the README's minimal consumer of the bwpart facade, sweeps the cells
# of the two heuristic schedulers that keep counter baselines (STFM, TCM)
# through the command line's policy names, checks that a sweep over an
# unknown policy exits non-zero before profiling anything, checks that the
# fig3 study, whose batch names some cells twice, runs one job per missed
# cell, then runs the interval study's online cells twice over one checkpoint
# directory: the second run must load every cell from disk and simulate none.
smoke:
	$(GO) test -run TestServeSmoke -count 1 ./internal/serve
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./cmd/sweep -mixes hetero-1 -schemes no-partitioning,stfm,tcm -parallel 1 > /dev/null
	@stats="$$(mktemp)"; trap 'rm -f "$$stats"' EXIT; \
	if $(GO) run ./cmd/sweep -mixes hetero-1 -schemes bogus-scheme -stats-json "$$stats" > /dev/null 2>&1; then \
		echo "smoke: a sweep over an unknown policy exited 0"; exit 1; fi; \
	if grep -q alone-profiling "$$stats"; then \
		echo "smoke: a sweep over an unknown policy profiled benchmarks before failing"; exit 1; fi
	@stats="$$(mktemp)"; trap 'rm -f "$$stats"' EXIT; \
	$(GO) run ./cmd/figures -quick -exp fig3 -stats-json "$$stats" > /dev/null || exit 1; \
	jobs="$$(grep -m1 '"total":' "$$stats" | tr -dc 0-9)"; misses="$$(grep -m1 '"misses":' "$$stats" | tr -dc 0-9)"; \
	if [ -z "$$jobs" ] || [ "$$jobs" != "$$misses" ]; then \
		echo "smoke: figures -exp fig3 ran $$jobs jobs for $$misses missed cells"; exit 1; fi
	@ckpt="$$(mktemp -d)"; trap 'rm -rf "$$ckpt"' EXIT; \
	$(GO) run ./cmd/figures -quick -exp interval -checkpoint-dir "$$ckpt" > /dev/null && \
	$(GO) run ./cmd/figures -quick -exp interval -checkpoint-dir "$$ckpt" -stats-json "$$ckpt/stats.json" > /dev/null && \
	if ! grep -q '"misses": 0,' "$$ckpt/stats.json"; then \
		echo "smoke: the interval study's rerun over its checkpoint dir simulated cells"; exit 1; fi

# fuzz mutates the kernel differential (naive oracle vs wake scheduler, run
# straight and in uneven slices) from its seed corpus
# for a bounded time. Failing inputs land in internal/sim/testdata/fuzz.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime $(FUZZTIME) ./internal/sim

# chaos is the failure-hardening gate: the fault-injection layer's own unit
# tests plus every TestChaos* scenario in the serve package — deterministic
# fault schedules over a real listener (checkpoint I/O errors, cell panics
# and stalls, journal write failures, job deadlines, SIGKILL-equivalent
# crash and journal resume) — all under the race detector.
chaos:
	$(GO) test -race -count 1 ./internal/faultinject
	$(GO) test -race -count 1 -run TestChaos -timeout 600s ./internal/serve

# benchbuild compiles and link-checks every benchmark without running any
# (the -run pattern matches no tests, -benchtime 1x keeps it cheap if a
# benchmark name ever slips through).
benchbuild:
	$(GO) test -run '^$$' -bench 'ThisMatchesNoBenchmark' -benchtime 1x ./...

# benchmod vets and compiles the nested bench/ module, which only `replace`s
# ../ (offline-safe) and which ./... above does not reach, then runs its golden
# smoke: every workload at tiny size, every cell checked against
# bench/golden.json, and BENCHMARK.json against the harness's metric tables.
# A root-package API change that would break the harness, or a change to any
# cell's digest, fails here, not in the pipeline's benchmark run. The harness's
# wall-clock test (TestReplayedCellAccounting) is left out: it can flake on a
# loaded host.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && \
		$(GO) test -run 'TestSmoke|TestSpecMatchesBenchmarkJSON' ./...

# bench runs the simulation-kernel and event-queue benchmarks (3 repeats of
# one iteration each) and condenses them into BENCH_kernel.json with the
# derived naive-vs-skip speedups, then does the same for the memory
# controller's pick/issue benchmarks into BENCH_memctrl.json. Two steps
# rather than a pipe so a failing bench run fails the target.
bench:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -count $(BENCH_COUNT) ./internal/sim ./internal/event > bench.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench.out -o BENCH_kernel.json
	$(BENCH_MEMCTRL) > bench_memctrl.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench_memctrl.out -o BENCH_memctrl.json
	$(BENCH_ENV) $(GO) test -run '^$$' -bench 'BenchmarkSweep|BenchmarkFigureSuite|BenchmarkRunGridHitWide' -benchmem -benchtime 1x -count $(BENCH_COUNT) ./internal/exper > bench_sweep.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench_sweep.out -o BENCH_sweep.json
	$(BENCH_ENV) $(GO) test -run '^$$' -bench BenchmarkServe -benchmem -benchtime 1x -count $(BENCH_COUNT) ./internal/serve > bench_serve.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench_serve.out -o BENCH_serve.json
	@rm -f bench.out bench_memctrl.out bench_sweep.out bench_serve.out
	@cat BENCH_kernel.json BENCH_memctrl.json BENCH_sweep.json BENCH_serve.json

# bench-check is the performance regression gate: re-run all four benchmark
# suites and compare their host-stable derived figures against the committed
# reports. Speedups (idle_speedup, saturated_speedup, mixed_speedup,
# sweep_fork_speedup, figures_dedup_speedup) fail when
# they shrink beyond BENCH_TOLERANCE percent, the cell counters
# (figures_unique_cells, figures_requested_cells) when they grow beyond it,
# and the allocation counts (event_queue_allocs_per_op, memctrl_allocs_per_op,
# serve_hit_allocs_per_op, rungrid_hit_allocs_per_op), the checkpoint size
# (snapshot_bytes_per_op) and the figure suite's functional warmups
# (figures_warmups: one per warm base it prepares) on any growth. ns/op rows, the serve _per_sec
# rates and serve_warm_speedup are written to the reports by `make bench`
# but not gated here.
bench-check:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -count $(BENCH_COUNT) ./internal/sim ./internal/event > bench.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench.out -against BENCH_kernel.json -tolerance $(BENCH_TOLERANCE) -o /dev/null
	$(BENCH_MEMCTRL) > bench_memctrl.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench_memctrl.out -against BENCH_memctrl.json -tolerance $(BENCH_TOLERANCE) -o /dev/null
	$(BENCH_ENV) $(GO) test -run '^$$' -bench 'BenchmarkSweep|BenchmarkFigureSuite|BenchmarkRunGridHitWide' -benchmem -benchtime 1x -count $(BENCH_COUNT) ./internal/exper > bench_sweep.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench_sweep.out -against BENCH_sweep.json -tolerance $(BENCH_TOLERANCE) -o /dev/null
	$(BENCH_ENV) $(GO) test -run '^$$' -bench BenchmarkServe -benchmem -benchtime 1x -count $(BENCH_COUNT) ./internal/serve > bench_serve.out
	$(BENCH_ENV) $(GO) run ./tools/benchjson -i bench_serve.out -against BENCH_serve.json -tolerance $(BENCH_TOLERANCE) -o /dev/null
	@rm -f bench.out bench_memctrl.out bench_sweep.out bench_serve.out

# loc prints the size figures quoted in CHANGES.md and ROADMAP.md: non-test Go
# lines per package outside bench/ (plain line counts, comments included) with
# their total, the checkpoint code (the lines of every internal/*/snapshot.go),
# the number of flag definitions under cmd/ and the number of exper.Config
# fields: the knobs a caller can set without a flag.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { sub(/^\.\//, "", $$2); sub(/\/?[^\/]*$$/, "", $$2); \
		n[$$2 == "" ? "." : $$2] += $$1; t += $$1 } END { for (p in n) printf "%6d %s\n", n[p], p; printf "%6d total\n", t }' | sort -k2
	@printf '%6d checkpoint code (internal/*/snapshot.go)\n' "$$(cat internal/*/snapshot.go | wc -l)"
	@printf '%6d flags under cmd/\n' "$$(grep -rhoE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var|Func)[A-Za-z]*\(' cmd --include='*.go' | wc -l)"
	@printf '%6d exper.Config fields\n' "$$(awk '/^type Config struct/ { f = 1; next } f && /^}/ { f = 0 } f && /^\t[A-Za-z]/' internal/exper/exper.go | wc -l)"

# testtime runs the tier-1 suite once, uncached, and prints every package's
# wall time, slowest first, with their sum and the run's wall time: the
# per-PR tier-1 budget in one command. It fails when a test fails.
testtime:
	$(GO) test -count=1 -json ./... | $(GO) run ./tools/testtime
