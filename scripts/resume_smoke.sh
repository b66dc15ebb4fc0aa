#!/usr/bin/env bash
# Kill-and-resume smoke test: the manifest half of the resume contract.
#
# 1. Runs an uninterrupted reference sweep with a manifest.
# 2. Interrupts a checkpointed sweep mid-grid with SIGINT; the
#    -checkpoint store keeps every run that completed.
# 3. Resumes it with -resume and requires the resumed manifest to
#    digest identically to the reference.
#
# Usage: scripts/resume_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work/bin"

go build -o "$work/bin/sweep" ./cmd/sweep
go build -o "$work/bin/manifest" ./cmd/manifest
cd "$work"

echo "== reference sweep (uninterrupted) =="
bin/sweep -net tree -vcs 2 -k 4 -n 3 -manifest ref.jsonl > /dev/null

echo "== interrupt a checkpointed sweep mid-grid =="
bin/sweep -net tree -vcs 2 -k 4 -n 3 -checkpoint sweep.ckpt > /dev/null &
pid=$!
sleep 2
kill -INT "$pid"
wait "$pid" || true
echo "checkpoint holds $(cat sweep.ckpt/seg-*.jsonl | wc -l) completed runs"

echo "== resume and finish =="
bin/sweep -net tree -vcs 2 -k 4 -n 3 -checkpoint sweep.ckpt -resume -manifest resumed.jsonl > /dev/null

echo "== resumed manifest must digest identically to the reference =="
bin/manifest -digest ref.jsonl resumed.jsonl
ref=$(bin/manifest -digest ref.jsonl | cut -d' ' -f1)
res=$(bin/manifest -digest resumed.jsonl | cut -d' ' -f1)
test "$ref" = "$res"

echo "resume smoke: OK"
