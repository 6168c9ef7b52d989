#!/usr/bin/env bash
# Runs every workload, one process each, and prints each one's metrics.
#
# Usage, from the repository root:
#   bash simbench/all.sh [seed] [seconds] [trace]
set -euo pipefail

dir="$(cd "$(dirname "$0")" && pwd)"
for w in paper-popular million-flow flash-cdn; do
	echo "== $w"
	bash "$dir/run.sh" --workload "$w" --seed "${1:-1}" --seconds "${2:-35}" --trace "${3:-0}"
done
