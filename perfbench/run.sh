#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload netmap-tx --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout; the toolchain is used as installed, never
# downloaded.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export GOMODCACHE=$out/gomodcache
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# The simulator is serial: two threads leave the collector room, and never
# more threads than CPUs.
procs=$(nproc)
[ "$procs" -gt 2 ] && procs=2
export GOMAXPROCS=$procs

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
