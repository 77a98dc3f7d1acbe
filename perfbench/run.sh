#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash perfbench/run.sh --workload city|direct|relayed --seed N --seconds S --trace 0|1
# Run from the repository root. The binary, the Go build cache and the go
# command's own state stay in $CARGO_TARGET_DIR, default .bench_build/.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
