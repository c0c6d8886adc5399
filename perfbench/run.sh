#!/usr/bin/env bash
# Builds the videodb benchmark from the enclosing checkout and runs it.
#
#   bash perfbench/run.sh --workload temporal_analytics --seed 1 --seconds 50 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under $CARGO_TARGET_DIR (default .bench_build) in the checkout,
# and it never fetches modules. The result is the last line of stdout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
	/*) ;;
	*) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
export GOWORK=off CGO_ENABLED=0

if ! (cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2; then
	echo "perfbench: build failed (is this the root of a videodb checkout?)" >&2
	exit 2
fi
exec "$out/perfbench-bin" -out "$out/perfbench" "$@"
