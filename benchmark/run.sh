#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it. Everything the Go toolchain and the benchmark
# write (build cache, temp files, sockets, stream logs, span files) is
# kept under .bench_build, so a run touches nothing outside the
# checkout. Arguments are passed through to the benchmark binary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-modcacherw

go -C "$here" build -o "$build/sbbenchmark" .

# A relative temp root keeps the Unix-socket paths the bulk_uds workload
# binds well under the 108-byte sun_path limit however deep the checkout.
cd "$root"
TMPDIR=.bench_build/tmp exec "$build/sbbenchmark" "$@"
