#!/usr/bin/env bash
# Builds the perfbench driver from the sources of the checkout it is run in
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload rpc-random --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, temporary files and the run's scratch files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
export TMPDIR="$out/tmp"
# Not exec: the driver reports its sentinels' peak RSS from RUSAGE_CHILDREN,
# which would otherwise include the compiler processes reaped above.
"$out/perfbench" "$@"
