#!/usr/bin/env bash
# Builds the benchmark and gicnetd from this checkout's sources, then runs
# one benchmark invocation with every argument passed through, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 3 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout; traced runs write spans to .bench_traces/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
go -C "$root/perfbench" build -o "$build/gicnetd" gicnet/cmd/gicnetd
cd "$root"
exec "$build/perfbench" --build-dir "$build" "$@"
