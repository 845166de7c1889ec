#!/usr/bin/env bash
# Builds vigil-bench inside the checkout (.bench_build/) and runs it from the
# repo root; every argument goes to the binary. See bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# Keep every byte the build writes inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
go build -C bench -buildvcs=false -o "$build/vigil-bench" .
exec "$build/vigil-bench" -out bench/out "$@"
