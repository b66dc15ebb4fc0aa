#!/usr/bin/env bash
# Fault-injection smoke test: the degraded-mode acceptance path.
#
# 1. Runs a faulted, bursty netsim at 1 and 4 fabric shards: the full
#    report — counters, fault summary, reroute totals — must be
#    byte-identical. Fault masks are serial-stage state; the shard count
#    must never show through.
# 2. Repeats the sharded run: the report must also be byte-identical
#    across invocations (whole-pipeline determinism).
# 3. Round-trips a fault schedule through its JSONL form: a schedule
#    file drives netsim to the same report as the inline spec, and
#    `manifest -digest` gives it a stable content address.
# 4. A malformed -burst fails the sweep before its grid starts: exit 1
#    and no manifest written.
#
# Usage: scripts/fault_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work" bin

go build -o bin/netsim ./cmd/netsim
go build -o bin/manifest ./cmd/manifest
go build -o bin/sweep ./cmd/sweep

args=(-net cube -k 4 -n 2 -alg duato -vcs 4 -pattern uniform -load 0.4
    -seed 9 -warmup 300 -horizon 2500
    -faults rand-links:3@400-1800,router:5@600-1400 -burst mmpp:100:300:2.0)

echo "== faulted run is shard-count invariant =="
bin/netsim "${args[@]}" -shards 1 >"$work/shards1.out"
bin/netsim "${args[@]}" -shards 4 >"$work/shards4.out"
diff -u "$work/shards1.out" "$work/shards4.out" || {
    echo "faulted report diverged between 1 and 4 shards"; exit 1; }
grep -q 'fault stalls' "$work/shards1.out" || {
    echo "report carries no fault summary — the schedule never engaged"; exit 1; }
grep -q 'rerouted around fault masks' "$work/shards1.out" || {
    echo "duato reported no reroute counter"; exit 1; }

echo "== faulted run is reproducible across invocations =="
bin/netsim "${args[@]}" -shards 4 >"$work/shards4.again"
cmp "$work/shards4.out" "$work/shards4.again" || {
    echo "identical faulted invocations diverged"; exit 1; }

echo "== schedule file round-trips through smart/faults/v1 =="
cat >"$work/sched.jsonl" <<'EOF'
{"schema":"smart/faults/v1"}
{"cycle":400,"kind":"link-down","router":2,"port":1}
{"cycle":600,"kind":"router-down","router":5,"port":0}
{"cycle":1400,"kind":"router-up","router":5,"port":0}
{"cycle":1800,"kind":"link-up","router":2,"port":1}
EOF
spec='link:2:1@400-1800,router:5@600-1400'
fileargs=(-net cube -k 4 -n 2 -alg duato -vcs 4 -pattern uniform -load 0.4
    -seed 9 -warmup 300 -horizon 2500 -burst mmpp:100:300:2.0 -shards 4)
bin/netsim "${fileargs[@]}" -faults "$work/sched.jsonl" >"$work/fromfile.out"
bin/netsim "${fileargs[@]}" -faults "$spec" >"$work/fromspec.out"
cmp "$work/fromfile.out" "$work/fromspec.out" || {
    echo "JSONL schedule and inline spec produced different reports"; exit 1; }
d1=$(bin/manifest -digest "$work/sched.jsonl" | awk '{print $1}')
d2=$(bin/manifest -digest "$work/sched.jsonl" | awk '{print $1}')
[ -n "$d1" ] && [ "$d1" = "$d2" ] || {
    echo "manifest digest of the schedule is unstable: $d1 vs $d2"; exit 1; }
bin/manifest "$work/sched.jsonl" | grep -q "canonical: $spec" || {
    echo "manifest did not recover the canonical spec"; exit 1; }

echo "== malformed -burst is refused before the grid =="
if bin/sweep -quick -net tree -vcs 2 -k 4 -n 2 -burst bogus -manifest "$work/bogus.jsonl" 2>"$work/bogus.err"; then
    echo "sweep accepted -burst bogus"; exit 1
fi
grep -q 'burst' "$work/bogus.err" || { echo "refusal does not name the burst spec"; exit 1; }
[ ! -e "$work/bogus.jsonl" ] || { echo "refused sweep still wrote a manifest"; exit 1; }

echo "fault smoke passed (workdir $work)"
