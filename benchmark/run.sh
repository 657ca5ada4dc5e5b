#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write stays under benchmark/out/:
# the build cache, temporary files, and the Go command's own state
# (GOPATH, and the telemetry counters it keeps under the config dir).
set -eu
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" TMPDIR="$PWD/out/tmp"
export GOPATH="$PWD/out/gopath" XDG_CONFIG_HOME="$PWD/out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o out/dievent-bench .
exec out/dievent-bench "$@"
