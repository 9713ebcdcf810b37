#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh                                   # all five workloads
#   bash bench/run.sh -workload serve-short -seed 7 -seconds 10 -trace 0
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build and the run leave behind (Go build cache, the
# binary, CPU profiles, scratch files) goes to .bench_build/ at the
# repository root, so the benchmark reads and writes only inside the
# checkout. Run it from the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its environment file and telemetry counters
# under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
