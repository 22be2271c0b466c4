GO ?= go
STATICCHECK ?= staticcheck
# Pinned so `make lint` reproduces across checkouts; CI installs exactly
# this version via `make staticcheck-install`. (A go.mod tool directive
# would be the cleaner pin, but the module deliberately has zero
# dependencies so fully offline checkouts still build — see DESIGN.md
# "Static analysis".)
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test test-short race determinism known-bugs profile bench bench-check bench-layers smoke16k smoke-cli vet lint staticcheck-install fmt-check loc check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Determinism gate: run the experiment-facing determinism regressions twice
# under the race detector — every makespan, recovery stat and sweep output
# must be byte-identical run-to-run (see DESIGN.md "Concurrency and
# determinism"). Includes the single-failure mailbox repro (ROADMAP item
# 1(a)), thirty runs at each of GOMAXPROCS 1, 2 and 8 with one makespan,
# and a one-failure run whose plane counters must not move with the core
# count, both once real-time races. Includes the virtual-time kill-fence configurations: one
# failure event landing mid-checkpoint-wave under a storage bandwidth
# model, exact-tie kill stamps, two victims in one round, a failure during
# an in-progress recovery round, the blocked-scope-peer drain (the naive
# pre-kill drain deadlock regression), and the E6 store-fault sweep
# (shard kills ordered in virtual time during recovery; shared/sharded/
# ec/replica survival outcomes must be byte-identical run-to-run). The
# second line repeats the multi-failure fence tests whose outcome once
# followed real-time arrival order (reverse-order detections, overlapping
# scopes, two failures detected at the same virtual time, a failure
# joining a round at its start while a slow rank still drains, a failure
# during a recovery round, those scenarios with every coordinator's result
# delayed in real time, and two checkpoint-triggered failures under all
# three protocols) on one, two and eight cores. The third line holds the
# delivery plane's default goroutine driver to its promise under the race
# detector on one, two and eight cores: 64 goroutines ping-pong through
# FlushRecv and 8 take turns with FlushAwaitTurn while the lock is
# contended from every side, and every receive and every turn must return.
# The fourth runs it with the staged checkpoint wave, whose marker flush
# and buffered App messages are consumed by take callbacks that write the
# waiting process's pending list, markers and clock inside whichever
# mutation serves the wait, while save stages run on goroutines of their
# own, under the race detector on one, two and eight cores. One multi-failure
# schedule still deadlocks (DESIGN.md "Remaining caveat"); `make
# known-bugs` keeps it reproducible.
determinism:
	$(GO) test -race -count=2 -run 'Reproducible|ByteStable|SchedulingIndependent|AwaitTurn' . ./internal/transport/ ./internal/mpi/
	$(GO) test -cpu 1,2,8 -count=50 -run 'ReverseOrderDetections|OverlappingScope|SameDetection|JoinAtStart|FailureDuringRecovery|SlowCoordinatorResult|TwoCheckpointFailuresAllProtocols' ./internal/mpi/
	$(GO) test -race -cpu 1,2,8 -count=5 -run 'TestRecvAndTurnHandOffUnderContention' ./internal/transport/
	$(GO) test -race -cpu 1,2,8 -count=3 -run 'StagedCheckpointWaveReproducible|HandOffUnderContention|EnvelopePoison' ./internal/mpi ./internal/transport

# The multi-failure bug ROADMAP item 1 has to fix (internal/mpi/
# knownbugs_test.go, build tag knownbugs). The result is INVERTED: exit 0
# while it still reproduces (naming it), non-zero once it does not — the
# signal to delete the tag and fold the test into `determinism`. A test
# file that does not build is its own failure (exit 2), never a fixed bug.
# Not part of `check`.
known-bugs:
	@out="$$($(GO) test -tags knownbugs -run KnownBug -count=1 ./internal/mpi 2>&1)"; \
	if printf '%s\n' "$$out" | grep -q -e '\[build failed\]' -e '\[setup failed\]'; then \
		printf '%s\n' "$$out"; \
		echo "the knownbugs tests do not build"; \
		exit 2; \
	elif printf '%s\n' "$$out" | grep -q '^--- FAIL: TestKnownBug'; then \
		echo "known bugs still reproducing:"; \
		printf '%s\n' "$$out" | grep -A1 '^--- FAIL: TestKnownBug' | cut -c1-400; \
	else \
		printf '%s\n' "$$out"; \
		echo "no known bug reproduces: delete the knownbugs tag and fold the tests into make determinism"; \
		exit 1; \
	fi

# CPU profile of the np=1024 HydEE smoke workload, ten runs of it so the
# half-second run yields enough samples to rank. Leaves cpu.prof and the
# test binary hydee-smoke.test; inspect with
#   go tool pprof hydee-smoke.test cpu.prof
profile:
	$(GO) test -run 'TestHydEESmoke1024' -count=10 -cpuprofile cpu.prof -o hydee-smoke.test .
	@echo "profile written to cpu.prof; open with: go tool pprof hydee-smoke.test cpu.prof"

# The repository benchmark (BENCHMARK.json; see benchmark/README.md): five
# named workloads, end-to-end and per-layer metrics, results under
# benchmark/out/.
bench:
	bash benchmark/run.sh

# The benchmark driver is a nested module that `./...` above does not
# reach; build, vet and short-test it, then run its golden vt_digest gate
# (TestTinyWorkloads, ≈3 s, which skips itself under -short), so an API
# change in the root module cannot silently break it or move a digest.
bench-check:
	cd benchmark && $(GO) build . && $(GO) vet . && $(GO) test -short . && $(GO) test -run TestTinyWorkloads .

# The in-tree benchmarks of the layers the repository benchmark attributes
# time to: the erasure kernel (Encode under each of its bodies, Split,
# Reconstruct), the checkpoint data
# path (fragment seal, steady-state ec and replica saves, the stage and
# the commit of an ec save, a degraded ec load) with MB/s and B/op, the
# delivery plane (one mutation at np 16 to 4096), the clustering tool
# (torus and complete graphs at 256, a torus at 4096), the protocol engine
# (building one at np = 1024 and 16384, Algorithm 1's send path, a
# checkpoint's protocol state at np = 64, 1024 and 16384, a GCAck's prune
# at np = 1024 in singleton clusters beside 32 and 992 other logged
# destinations) and the runtime (an np = 64 checkpoint wave into ec:4+2,
# staged and under the turn; the marker flush of an np = 1024 wave;
# Proc.capture and the image encode at 64 KiB and 512 KiB images; FT's
# pairwise all-to-all at np = 256, per message, in wall and CPU time). CI
# runs the same set with -benchtime 1x so they cannot rot. The all-to-all
# and the checkpoint wave, the turn-heavy layer, run once more on one and
# on two cores: a run's ranks take turns on one goroutine, but the save
# stages of a wave run on goroutines of their own, so a second core shows
# in wave time and in CPU per message.
BENCH_LAYERS = ./internal/erasure ./internal/checkpoint ./internal/transport ./internal/graph ./internal/core ./internal/mpi

bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime 200ms $(BENCH_LAYERS)
	$(GO) test -run '^$$' -bench 'Alltoall256|CheckpointWave' -benchtime 5x -cpu 1,2 ./internal/mpi

# The TestHydEESmoke1024 shape (HydEE, 32-rank clusters, one checkpoint,
# one failure, one recovery round) at np = 16384, the largest rank count
# a sweep spec accepts (scale16k_test.go, build tag smoke16k). Not part
# of `check`; the test logs its wall time, the process's peak RSS and its
# peak live heap, and fails above a 700 MB peak RSS.
smoke16k:
	$(GO) test -tags smoke16k -run 'TestHydEESmoke16384' -count=1 -v -timeout 30m .

# Every sweep binary once at toy size, then every example program, so
# the experiment entry points run end to end rather than only compile.
# hydee-recover streams its events into a throwaway directory, which must
# come back holding per-run files, and runs once more over a file store
# in that directory, so snapshots go through the codec to disk and back.
# Two inputs must be refused with a non-zero exit: hydee-recover over a
# store directory under a regular file, whose metrics -events file must
# still hold its one summary line (the stream is closed on error), and
# hydee-cluster with an unknown -app.
# The stdout of the sharded hydee-recover run, of hydee-nas and of
# hydee-netpipe must equal cmd/testdata/*.golden byte for byte. A change
# meant to move them refreshes them with
#   go run ./cmd/hydee-recover -np 16 -iters 4 -store sharded:4 -store-bps 4e9 > cmd/testdata/hydee-recover.golden
#   go run ./cmd/hydee-nas -np 16 -iters 2 > cmd/testdata/hydee-nas.golden
#   go run ./cmd/hydee-netpipe -reps 2 > cmd/testdata/hydee-netpipe.golden
smoke-cli:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for golden in "hydee-recover -np 16 -iters 4 -store sharded:4 -store-bps 4e9 -events $$tmp/" "hydee-nas -np 16 -iters 2" "hydee-netpipe -reps 2"; do \
		echo "go run ./cmd/$$golden (golden)"; $(GO) run ./cmd/$$golden >"$$tmp/out"; \
		diff -u "cmd/testdata/$${golden%% *}.golden" "$$tmp/out"; \
	done; \
	for cmd in "./cmd/hydee-cluster -np 16" \
		"./cmd/hydee-recover -np 16 -iters 4 -store file -store-dir $$tmp/ckpt" $(wildcard ./examples/*/); do \
		echo "go run $$cmd"; $(GO) run $$cmd >/dev/null; \
	done; \
	ls "$$tmp"/run-*.jsonl "$$tmp"/ckpt/ckpt-*.hysn >/dev/null; \
	touch "$$tmp/file"; \
	echo "go run ./cmd/hydee-recover -store-dir <under a file> -exporter metrics (refused)"; \
	if $(GO) run ./cmd/hydee-recover -np 16 -iters 4 -store file -store-dir "$$tmp/file/ckpt" \
		-events "$$tmp/metrics.json" -exporter metrics >/dev/null 2>&1; then \
		echo "hydee-recover exited 0 over a store directory it cannot create"; exit 1; \
	fi; \
	if [ "$$(wc -l <"$$tmp/metrics.json")" -ne 1 ] || ! grep -q '^{.*}$$' "$$tmp/metrics.json"; then \
		echo "a failed hydee-recover left no summary line in its -events file:"; cat "$$tmp/metrics.json"; exit 1; \
	fi; \
	echo "go run ./cmd/hydee-cluster -np 16 -app xx (refused)"; \
	if $(GO) run ./cmd/hydee-cluster -np 16 -app xx >/dev/null 2>&1; then \
		echo "hydee-cluster exited 0 for an unknown kernel"; exit 1; \
	fi

# Files behind build tags are vetted too, so they cannot stop compiling
# unnoticed.
vet:
	$(GO) vet ./...
	$(GO) vet -tags knownbugs ./internal/mpi
	$(GO) vet -tags smoke16k .

# Static analysis beyond vet: hydee's own determinism analyzers first
# (wallclock, maprange, lockdiscipline, selectorder — see DESIGN.md
# "Static analysis"), then staticcheck. hydee-lint builds from the
# standard library only, so the full determinism suite runs even on
# offline checkouts where x/tools-based linters cannot be installed;
# staticcheck is not vendored and degrades to a notice when absent,
# while CI installs the pinned version and gets the full run.
lint: vet
	$(GO) run ./cmd/hydee-lint ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (make staticcheck-install for the pinned $(STATICCHECK_VERSION))"; \
	fi

# Install the exact staticcheck version `make lint` is pinned to.
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The four size numbers every PR reports, counted the way ROADMAP fixed:
# non-test / test Go lines outside benchmark/, Go lines in benchmark/, and
# //hydee:allow annotations in product code (not internal/lint, not tests).
loc:
	@echo "non-test Go lines:  $$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:      $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@echo "benchmark/ lines:   $$(find ./benchmark -name '*.go' | xargs cat | wc -l)"
	@echo "//hydee:allow:      $$(grep -rn '//hydee:allow' --include='*.go' . | grep -v -e '_test.go' -e 'internal/lint/' -e '^./benchmark/' | wc -l)"
	@for d in internal/mpi internal/transport internal/checkpoint; do \
		echo "$$d non-test: $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l)"; \
	done

check: build vet fmt-check test bench-check

# Remove what `make profile`, `make bench` and `make bench-check` leave in
# the working tree (all git-ignored).
clean:
	rm -rf cpu.prof hydee-smoke.test .bench_build benchmark/benchmark
