#!/usr/bin/env bash
# Builds the host-performance benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload olap-scan|oltp-rw|serve-storm \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files and the binary) stays under .bench_build
# in that directory; the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Stop-the-world collection: each collection then starts and ends at the
# same point of a seeded run, so the peak RSS repeats.
export GODEBUG=gcstoptheworld=1
exec "$out/perfbench" "$@"
