#!/usr/bin/env bash
# Builds the benchmark and the daemon it measures from the tree it stands
# in, then runs the benchmark. Run from the repository root:
#
#   bash bench/run.sh --workload udp_hit --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1          # all workloads
#   bash bench/run.sh -seed 1 -aa      # twice, compared against the bounds
#
# Everything it writes stays inside the checkout: binaries and the Go build
# cache under .bench_build/, traces and scratch files under bench/out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$root/bench/out"

export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user's config
# directory; this keeps them inside the checkout as well.
export XDG_CONFIG_HOME="$build/config"
# bench/ is a module of its own; dohpoold comes from the tree through its
# replace directive, so one build covers all three programs. With a warm
# cache this is a fraction of a second, and it can never run a stale binary.
go -C "$root/bench" build -o "$build/bin/" ./cmd/dohbench ./cmd/benchstack dohpool/cmd/dohpoold >&2

cd "$root"
exec "$build/bin/dohbench" -bin "$build/bin" -out "$root/bench/out" -spec "$root/BENCHMARK.json" "$@"
