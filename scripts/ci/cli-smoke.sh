#!/bin/sh
# cli-smoke.sh
#
# CI smoke gate over the attack CLI's checkpoint workflow, driven through
# the built binary so real signals and exit codes are exercised:
#
#   1. an exact cookie -collect-only shard with -checkpoint-every 8192 must
#      checkpoint at 8192 and 16384 records;
#   2. a longer exact run sent SIGINT must exit 130 after flushing its
#      checkpoint at a fold-batch boundary (a multiple of 2048 records);
#   3. -resume from that checkpoint must finish the run at the budget, with
#      the same JSON outcome as an uninterrupted run.
#
# Results are compared as JSON, not snapshot bytes: gob type ids depend on
# each process's history (DESIGN.md §1). The budgets are far below the
# paper's, so the decodes are expected to miss: a run that prints its JSON
# line and exits 1 has finished. Builds bin/rc4attack itself.
set -eu

tmp=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o bin/rc4attack ./cmd/rc4attack
run="bin/rc4attack -attack cookie -mode exact -candidates 16"
budget=200000

# finished runs a decoding invocation and accepts exit 0 (found) or 1 (missed).
finished() {
    out=$1
    shift
    code=0
    "$@" >"$out" || code=$?
    if [ "$code" -gt 1 ]; then
        echo "run exited $code:" >&2
        cat "$out" >&2
        exit 1
    fi
}

# outcome is a run's JSON line without its timings.
outcome() {
    tail -n 1 "$1" | jq -c 'del(.capture_ms, .decode_ms, .oracle_ms, .elapsed_ms)'
}

# 1. checkpointed collect-only shard
$run -budget 20000 -checkpoint-every 8192 -checkpoint "$tmp/c.snap" -collect-only >"$tmp/collect.out"
grep -q "checkpoint: 8192 records" "$tmp/collect.out"
grep -q "checkpoint: 16384 records" "$tmp/collect.out"
test -s "$tmp/c.snap"

# 2. SIGINT mid-capture, once the first checkpoint shows capture under way
$run -budget "$budget" -checkpoint-every 8192 -checkpoint "$tmp/run.snap" -json >"$tmp/run.out" &
pid=$!
for _ in $(seq 1 100); do
    grep -q "checkpoint: " "$tmp/run.out" && break
    sleep 0.1
done
kill -INT "$pid"
code=0
wait "$pid" || code=$?
pid=
if [ "$code" -ne 130 ]; then
    echo "interrupted run exited $code, want 130:" >&2
    cat "$tmp/run.out" >&2
    exit 1
fi
at=$(sed -n 's/.*checkpoint flushed at \([0-9]*\) records.*/\1/p' "$tmp/run.out")
if [ -z "$at" ] || [ $((at % 2048)) -ne 0 ] || [ "$at" -ge "$budget" ]; then
    echo "checkpoint flushed at '$at', want a multiple of 2048 below $budget:" >&2
    cat "$tmp/run.out" >&2
    exit 1
fi

# 3. resume to the budget; the outcome must match an uninterrupted run's
finished "$tmp/resume.out" $run -budget "$budget" -checkpoint-every 8192 -checkpoint "$tmp/run.snap" -resume "$tmp/run.snap" -json
finished "$tmp/whole.out" $run -budget "$budget" -checkpoint-every 8192 -json
test "$(tail -n 1 "$tmp/resume.out" | jq .observations)" -eq "$budget"
if [ "$(outcome "$tmp/resume.out")" != "$(outcome "$tmp/whole.out")" ]; then
    echo "resumed outcome $(outcome "$tmp/resume.out")" >&2
    echo "whole outcome   $(outcome "$tmp/whole.out")" >&2
    exit 1
fi
echo "cli-smoke: interrupted at $at records, resumed to $budget; outcome $(outcome "$tmp/resume.out")"
