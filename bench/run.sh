#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checkout's
# source, then run it with the arguments given. Everything the Go toolchain
# writes — build cache, module cache, its telemetry counters (which follow
# the user configuration directory), the binary — stays under .bench_build
# in the checkout, so a run reads and writes nothing outside it. Outside a
# checkout of the repository (no go.mod, no internal/) the build fails and
# so does this script, before anything is printed on standard output.
#
# Telemetry is switched off in that private configuration directory before
# any other go command runs: with the default mode ("local") the first go
# command of the day forks a detached "** telemetry **" sidecar that nobody
# waits for, and it outlives this script whenever the build is quick or
# fails. `go telemetry off` is the one invocation that starts no sidecar.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go telemetry off >&2
go build -o "$build/flacos-bench" ./bench >&2
exec "$build/flacos-bench" "$@"
