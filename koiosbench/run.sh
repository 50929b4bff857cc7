#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ (or $CARGO_TARGET_DIR when set) inside the
# checkout; the go toolchain is the only thing read from outside it.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/koiosbench" && go build -o "$build/koiosbench" .) >&2
exec "$build/koiosbench" -work "$build" "$@"
