# PADLL-Go build targets. Everything is plain `go` — this file only names
# the common invocations.

GO ?= go

.PHONY: all build test race fuzz-smoke bench bench-all bench-smoke bench-diff vet fmt lint lint-self fix-smoke wire-deps ci experiments tools clean

# Hot-path packages benchmarked by `make bench`: the data-plane fast
# path, the interposition layer ladder (backend → +stage → +shim →
# +router) and the io/fs bridge (vfs/osfs bridge-vs-direct overhead).
BENCH_PKGS = ./internal/stage/... ./internal/metrics/... \
             ./internal/tokenbucket/... ./internal/policy/... \
             ./internal/interpose/... ./internal/vfs/...

# Control-plane packages benchmarked by `make bench` (the fleet feedback
# loop: batched wire protocol, delta collection, RunOnce at scale).
BENCH_CONTROL_PKGS = ./internal/control/... ./internal/rpcio/...

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Control-plane packages, plus the router's descriptor table and the
# shim's in-place forwarding, under the race detector, twice: -count=2
# defeats the test cache and shakes out order-dependent state, which is
# how the chaos determinism tests are meant to be run.
race:
	$(GO) test -race -count=2 ./internal/stage/... ./internal/control/... ./internal/rpcio/... ./internal/tokenbucket/... \
		./internal/mount/... ./internal/interpose/...

# 10-second smoke run of each fuzz target (go allows one -fuzz per
# invocation). The checked-in corpora under testdata/fuzz replay on every
# plain `go test` already; this also exercises fresh mutations.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMatcher -fuzztime 10s ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzTraceParse -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzPragmaParse -fuzztime 10s ./internal/lint/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s ./internal/rpcio/

# Hot-path microbenchmarks at 1, 4 and 8 simulated CPUs, then the
# control-plane fleet benchmarks; the raw `go test -json` event streams
# land in BENCH_stage.json / BENCH_control.json so runs can be diffed
# against the committed baselines. The fleet benchmarks run at -cpu=1
# only: they measure wall-clock rounds over live sockets, not
# CPU-parallel hot paths, and a pinned setting keeps their names free
# of a host-dependent -N suffix. -count=3 gives the baseline the same
# minimum-of-three estimate bench-diff uses on the fresh side, so the
# gate never compares against a single unlucky (or lucky) sample.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -cpu=1,4,8 -count=3 -json $(BENCH_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -raw BENCH_stage.json
	$(GO) test -run='^$$' -bench=. -benchmem -cpu=1 -count=3 -json $(BENCH_CONTROL_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -raw BENCH_control.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Re-run the benchmarks and fail on regression in ns/op, allocs/op or
# wireB/round against the committed BENCH_control.json /
# BENCH_stage.json baselines (refresh with `make bench`). This is the
# tripwire that keeps the binary codec's wire wins and the alloc-free
# request path locked in. The deterministic units — allocs/op and
# wireB/round — are gated strictly at 15%. Wall-clock ns/op swings
# tens of percent between steal/thermal windows on a shared box
# (-count=3 keeping the fastest run filters in-window noise, not
# cross-window drift), so cross-window ns/op is a
# catastrophic-regression tripwire at 50%, and the interposition-tax
# claims that actually matter are gated as SAME-RUN ratios — bridged
# vs direct ns/op from one capture window — which host-speed drift
# cancels out of. Steady-state ratios on an idle box are ~1.2x/1.2x/
# 1.1x (stat/walk/readfile); the limits leave noise margin while still
# catching any real regression, which costs microseconds, not percent.
# The interposition ladder is gated the same way: a getattr through
# shim and router against the bare backend, ~1.4x on an idle box.
bench-diff:
	$(GO) test -run='^$$' -bench=. -benchmem -cpu=1 -count=3 -json $(BENCH_CONTROL_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -diff BENCH_control.json -ns-tolerance 0.5
	$(GO) test -run='^$$' -bench=. -benchmem -count=3 -cpu=4 -json $(BENCH_PKGS) \
		| $(GO) run ./cmd/padll-benchfmt -diff BENCH_stage.json -ns-tolerance 0.5 \
			-ratio 'BenchmarkOSBridgeStat-4/BenchmarkOSDirectStat-4<=1.6,BenchmarkOSBridgeWalkDir-4/BenchmarkOSDirectWalkDir-4<=1.6,BenchmarkOSBridgeReadFile-4/BenchmarkOSDirectReadFile-4<=1.6,BenchmarkLadderGetattrShimRouter-4/BenchmarkLadderGetattrBackend-4<=1.8'

# One-iteration pass over every hot-path and control-plane benchmark:
# catches bitrot (compile errors, panics, b.Fatal) without paying for
# real measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_PKGS) > /dev/null
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_CONTROL_PKGS) > /dev/null

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Run go vet plus the in-tree static-analysis suite (all eight
# analyzers: clockcheck, lockcheck, errdrop, printcheck, atomiccheck,
# hotpathcheck, wirecheck, leakcheck). Exits non-zero on any
# unsuppressed finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/padll-lint ./...

# The analyzer suite must hold to its own standards: run padll-lint
# over internal/lint and the driver itself.
lint-self:
	$(GO) run ./cmd/padll-lint ./internal/lint ./cmd/padll-lint

# -fix dry-run smoke: a clean tree must propose zero fixes, and the
# preview must be idempotent (two consecutive runs print the same plan).
fix-smoke:
	@$(GO) run ./cmd/padll-lint -diff ./... > .fixsmoke.1
	@$(GO) run ./cmd/padll-lint -diff ./... > .fixsmoke.2
	@cmp .fixsmoke.1 .fixsmoke.2 || { echo "padll-lint -diff is not idempotent"; rm -f .fixsmoke.1 .fixsmoke.2; exit 1; }
	@grep -q "0 fixes available" .fixsmoke.1 || { echo "padll-lint -diff proposes fixes on a clean tree:"; cat .fixsmoke.1; rm -f .fixsmoke.1 .fixsmoke.2; exit 1; }
	@rm -f .fixsmoke.1 .fixsmoke.2
	@echo "fix-smoke: -diff idempotent, no fixes pending"

# The control plane speaks one wire, the binary frame codec. Fail if
# anything — tests included — pulls the retired encoding/gob or net/rpc
# packages back into the module's build graph.
wire-deps:
	@retired="$$($(GO) list -deps -test ./... | grep -E '^(encoding/gob|net/rpc)$$')"; \
	if [ -n "$$retired" ]; then \
		echo "retired wire packages in the build graph:"; echo "$$retired"; exit 1; \
	fi
	@echo "wire-deps: no encoding/gob or net/rpc in the build graph"

# The full gate: formatting, vet, padll-lint (plus self-lint and the
# -fix dry-run smoke), the retired-wire dependency guard, build,
# race-enabled tests, a plain-mode pass over the packages whose
# AllocsPerRun guards skip under -race (race instrumentation defeats
# escape analysis, so alloc counts only mean anything uninstrumented),
# the doubled control-plane race pass, and a one-iteration benchmark
# smoke so the hot-path benches can't rot.
ci:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	$(MAKE) lint
	$(MAKE) lint-self
	$(MAKE) fix-smoke
	$(MAKE) wire-deps
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test ./internal/posix/... ./internal/localfs/... ./internal/interpose/... ./internal/vfs/... ./internal/stage/...
	$(MAKE) race
	$(MAKE) bench-smoke
	$(MAKE) bench-diff

# Regenerate every figure/table of the paper (tables printed to stdout,
# plot series dumped under out/).
experiments:
	$(GO) run ./cmd/padll-experiments -fig all -table overhead -ext all -csv out

# Build all command-line tools into ./bin.
tools:
	@mkdir -p bin
	for t in padll-controller padll-ctl padll-replayer padll-ior \
	         padll-mdtest padll-tracegen padll-experiments padll-benchfmt; do \
		$(GO) build -o bin/$$t ./cmd/$$t; \
	done

clean:
	rm -rf bin out test_output.txt bench_output.txt
