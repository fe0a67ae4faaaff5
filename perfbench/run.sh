#!/usr/bin/env bash
# Builds pcs and the benchmark harness from the checkout this is run in,
# then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload fig4-grid --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, including the Go build cache, so
# the first run in a fresh checkout compiles from scratch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/pcs" ./cmd/pcs
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -pcs "$out/bin/pcs" -work "$out/work" -record "$out/results.jsonl" "$@"
