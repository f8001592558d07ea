#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it
# from the checkout root; every argument passes through to the binary.
# Build cache, temporary files and run outputs stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
