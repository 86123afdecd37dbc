#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash benchmark/run.sh --workload dpor --seed 7 --seconds 20 --trace 0
#
# The build, its Go caches and the traced runs' span files stay under
# .bench_build in the current directory. The build fails, and the script
# exits non-zero without printing a result, when the directory does not
# hold the repository the benchmark imports.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

(cd benchmark && go build -o "$out/parcoach-bench" .)
exec "$out/parcoach-bench" "$@"
