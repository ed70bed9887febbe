#!/usr/bin/env bash
# Builds the benchmark and nasaicd from the checkout it is run in, then runs
# one workload. Run from the root of a nasaic checkout:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 30 --trace 0
#
# Without --workload it runs explore, cosample and service in turn, each in
# its own process, and fails if any of them does. Every build product and
# temporary file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nasaicd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a nasaic checkout (go.mod and cmd/nasaicd not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C "$root/perfbench" -o "$build/bin/perfbench" .
go build -o "$build/bin/nasaicd" ./cmd/nasaicd

bench=("$build/bin/perfbench" -root "$root" -nasaicd "$build/bin/nasaicd")
for arg in "$@"; do
	if [[ "$arg" == --workload* || "$arg" == -workload* ]]; then
		exec "${bench[@]}" "$@"
	fi
done
status=0
for w in explore cosample service; do
	"${bench[@]}" --workload "$w" "$@" || status=1
done
exit $status
