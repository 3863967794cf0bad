#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The build stamp: the git revision when the checkout is a repository,
# otherwise a hash of the Go sources.
if [ -d "$root/.git" ]; then
	build=$(git -C "$root" rev-parse --short HEAD)
else
	build=src-$(cd "$root" && find . \( -name '*.go' -o -name go.mod \) -not -path './.bench_build/*' -print0 |
		sort -z | xargs -0 sha256sum | sha256sum | cut -c1-12)
fi
exec "$out/perfbench" --build "$build" "$@"
