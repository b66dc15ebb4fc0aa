#!/usr/bin/env bash
# Report pin: regenerates the quick paper reproduction with every study
# (-quick -degraded -ablations) and diffs its stdout against the
# committed experiments_quick.txt. Only the "total wall time" line may
# differ; any other change to a printed number, table or heading fails.
#
# Usage: scripts/experiments_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/experiments" ./cmd/experiments
"$work/experiments" -quick -degraded -ablations > "$work/report.txt"
if ! diff <(grep -v '^total wall time ' experiments_quick.txt) \
	<(grep -v '^total wall time ' "$work/report.txt"); then
	echo "experiments-smoke: report differs from experiments_quick.txt" >&2
	exit 1
fi
echo "experiments-smoke: report matches experiments_quick.txt"
