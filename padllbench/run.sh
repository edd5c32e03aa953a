#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash padllbench/run.sh --workload meta-passthrough --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary trees) stays
# under .bench_build/ in the current directory, and the toolchain is kept
# offline: the benchmark needs nothing but the standard library and the
# repository's own module.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOTELEMETRY=off
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

(cd "$root/padllbench" && go build -trimpath -o "$out/padllbench" .) >&2
exec "$out/padllbench" -workdir "$out" "$@"
