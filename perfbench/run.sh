#!/usr/bin/env bash
# Builds the benchmark against the hadooppreempt source tree that holds
# this directory and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the tree. See perfbench/README.md.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no hadooppreempt source tree to benchmark" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Keeps the toolchain's telemetry and config reads inside the tree too.
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp"

(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
