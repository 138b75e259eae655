#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload dsearch-net --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every scratch file of the run (TMPDIR)
# stay under .bench_build in the checkout, which .gitignore lists.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false TMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
