#!/usr/bin/env bash
# Build the benchmark from the checkout's sources and run it. Run from the
# repository root:
#
#   bash _perfbench/run.sh --workload resident-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, the data
# files of a run (removed when it ends) and the result and span files.
set -euo pipefail

root="$(pwd)"
bench="$root/_perfbench"
[ -f "$bench/go.mod" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$out/tmp"

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --data "$out/data" --out "$out/results" "$@"
