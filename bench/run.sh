#!/usr/bin/env bash
# Builds the EL-service benchmark from the sources of this checkout and runs
# it; every argument is passed through (see bench/README.md):
#
#   bash bench/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# trained-model cache) goes under $CARGO_TARGET_DIR, default .bench_build,
# inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" --cache-dir "$build" "$@"
