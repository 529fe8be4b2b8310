#!/usr/bin/env bash
# Builds mtbase-bench from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the build and the run write —
# the Go build cache included — stays inside .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/mtbase-bench" .)
cd "$root"
exec "$build/mtbase-bench" "$@"
