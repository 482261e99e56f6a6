#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Every file the build and the
# run write (Go build cache, temp dirs, WAL data dirs, result and span files)
# stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/mvbench" .
BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT TMPDIR="$build/tmp"
cd "$root"
exec "$build/mvbench" "$@"
