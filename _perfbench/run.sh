#!/usr/bin/env bash
# Builds the YGM end-to-end benchmark from this checkout and runs it.
#
#   bash _perfbench/run.sh --workload bfs-local --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artefact (the Go build cache,
# the toolchain's temporary files and the binary) lives under
# .bench_build/, so the run reads and writes nothing outside the checkout.
# The build is pure Go (no cgo), so it needs no C toolchain. The build
# fails, and the script exits non-zero without printing a result, when
# the repository sources are not beside this directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" CGO_ENABLED=0
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=

(cd "$root/_perfbench" && go build -o "$out/ygmperf" .) >&2
exec "$out/ygmperf" --spans-dir "$out/spans" "$@"
