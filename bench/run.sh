#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given flags (see bench/README.md). Build outputs and the Go build cache
# stay in .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# The Go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all stay inside the checkout. The
# checkout need not be a repository, so the binary carries no VCS stamp.
# The module needs nothing from outside the checkout, so the build never
# downloads.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
go -C bench build -o "$out/deepnote-bench" .
exec "$out/deepnote-bench" "$@"
