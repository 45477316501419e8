#!/usr/bin/env bash
# Builds the session benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash sessionbench/run.sh --workload spec-check --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root: the Go build cache, the binary and the span
# files of traced runs.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/sessionbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$here" && go build -o "$out/sessionbench" .)
cd "$root"
exec "$out/sessionbench" "$@"
