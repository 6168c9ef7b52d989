#!/usr/bin/env bash
# Builds the end-to-end simulator benchmark from source and runs it.
#
# Usage, from the repository root:
#   bash simbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact (binary, Go build cache, toolchain config) stays under
# .bench_build/ in the checkout. The last line of standard output is the JSON
# result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/simbench" && go build -o "$out/simbench" .)
cd "$root"
exec "$out/simbench" "$@"
