#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-quick --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build in the current
# directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home"
(
	cd perfbench
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
