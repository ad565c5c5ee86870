#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload fattree-grpc --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, Go's
# own configuration and temporary files stay in $CARGO_TARGET_DIR (default
# .bench_build), so nothing outside the checkout is written.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/tmp" "$@"
