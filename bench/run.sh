#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build and the run write stays
# inside the checkout: the Go build cache, GOPATH and the go command's
# own configuration directory go to .bench_build/ too.
#
#   bash bench/run.sh --workload hot.L2 --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$build/go-path}"
(cd "$here" && XDG_CONFIG_HOME="$build/xdg" go build -o "$build/perfbench" .)
PERFBENCH_DIR="$here" exec "$build/perfbench" "$@"
