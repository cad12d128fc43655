#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout of the repository. The binary, the
# Go build cache and the traced runs' spans stay under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a checkout that holds the module source" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
