#!/bin/bash
# Program traffic: which code of the module the programs run, next to what
# the tier-1 tests run. Every program of cmd/, examples/ and benchmark/ is
# built with coverage counters and run, in a temporary directory, the way CI
# and the benchmark run it; the tier-1 tests run with the same counters.
# The script prints both statement shares and every function some test runs
# but no program does: the candidates a simplicity change deletes, or keeps
# for a reason (a fault path, a listed test hook, the paper API).
#
# It gates nothing. Run it from the repository root (a few minutes, most of
# it the tests under coverage):
#
#	bash ci/traffic.sh
set -eu
root=$(pwd)
[ -f "$root/go.mod" ] && [ -f "$root/benchmark/go.mod" ] || {
	echo "ci/traffic.sh: run from the root of the repository" >&2
	exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/run"

# -coverpkg=./internal/... writes no counters for a main package's
# dependencies; ./... (launchmon/... from the benchmark module) does.
for p in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$p")" "./$p"
done
go -C benchmark build -cover -coverpkg=launchmon/... -o "$tmp/bin/benchmark" .

cd "$tmp/run"
export GOCOVERDIR="$tmp/cov"
run() {
	"$@" > /dev/null 2>&1 || { echo "ci/traffic.sh: $* failed" >&2; exit 1; }
}
run ../bin/quickstart
run ../bin/middleware
run ../bin/jobsnap
run ../bin/statlaunch
run ../bin/lmonbench -smoke -obs -mem -json
run ../bin/benchdiff -baseline "$root/ci/bench_baseline.json" BENCH_smoke_*.json
run ../bin/lmonbench -all -maxk 1024 -obs -mem
run ../bin/lmonbench -trace trace.json
run ../bin/lmonbench -million -maxk 1024 -mem
for w in launch_wide launch_fat sample_loop session_churn; do
	run ../bin/benchmark -workload "$w" -seconds 1 -trace 0
done
run ../bin/benchmark -quick -trace 1
cd "$root"

# The benchmark module's own package is not this module's: cover cannot
# resolve its files, and it is the harness, not code under test.
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/programs.raw"
grep -v '^launchmon/benchmark/' "$tmp/programs.raw" > "$tmp/programs.out"
go test -count=1 -coverpkg=./... -coverprofile="$tmp/tests.out" ./... > /dev/null

go tool cover -func="$tmp/programs.out" > "$tmp/programs.func"
go tool cover -func="$tmp/tests.out" > "$tmp/tests.func"
echo "statements run by the programs: $(awk '/^total:/ {print $NF}' "$tmp/programs.func")"
echo "statements run by the tier-1 tests: $(awk '/^total:/ {print $NF}' "$tmp/tests.func")"
echo "functions some test runs and no program does:"
awk '$1 != "total:" && $NF == "0.0%" {print $1, $2}' "$tmp/programs.func" | sort > "$tmp/programs.zero"
awk '$1 != "total:" && $NF != "0.0%" {print $1, $2}' "$tmp/tests.func" | sort > "$tmp/tests.run"
comm -12 "$tmp/programs.zero" "$tmp/tests.run" | sed "s|^launchmon/||; s|^|	|"
