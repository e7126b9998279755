#!/bin/bash
# Entry point of the driver contract (BENCHMARK.json "command"): builds the
# benchmark from source inside the checkout and runs it with the driver's
# arguments. Build outputs and Go's build cache stay under .bench_build, so
# nothing is read or written outside the checkout.
set -eu
root=$(pwd)
[ -f "$root/benchmark/go.mod" ] && [ -f "$root/go.mod" ] || {
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
}
build="$root/.bench_build"
mkdir -p "$build"
# A hermetic Go environment: no user configuration, no network, no $HOME.
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
