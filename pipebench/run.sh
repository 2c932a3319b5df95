#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash pipebench/run.sh --workload lrb --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache, temporary files, the
# binary and the runs' WAL directories all stay under .bench_build/ in the
# working directory.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
if [ ! -f go.mod ] || [ ! -d pipebench ]; then
	echo "pipebench: no go.mod here; run from the repository root" >&2
	exit 2
fi
# With telemetry on, the go command can fork a detached upload process that
# outlives it; the mode file in the private config directory turns it off.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/pipebench" ./pipebench
exec "$build/pipebench" "$@"
