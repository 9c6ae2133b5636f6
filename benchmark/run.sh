#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# The Go build cache is kept there too, so nothing outside the checkout is
# written.
set -euo pipefail
root=$(pwd)
# Without the program's sources there is nothing to build; say so before
# the toolchain is started at all.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: $root is not a checkout of pdmdict (no go.mod, no internal/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain to the checkout: its cache, its per-user settings
# and telemetry directory, and no download of another toolchain.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
# In its default "local" mode the go command starts a detached telemetry
# sidecar (setsid, reparented to init) the first time it sees a fresh
# settings directory, and that process outlives a go command that fails
# fast. Mode "off" is the documented switch; with it no child is started.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/pdmdict-benchmark" ./benchmark
exec "$build/pdmdict-benchmark" "$@"
