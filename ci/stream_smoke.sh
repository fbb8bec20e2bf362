#!/usr/bin/env bash
# Streaming smoke test: run `octree watch` against a live daemon and assert
# the full incremental loop end to end:
#   * every applied delta batch rewrites the tree and SWAPs it into the
#     daemon, so the served epoch advances past the batch count;
#   * kill -9 mid-stream loses nothing — `--resume` restores from the
#     stream checkpoint and replays only the remaining batches;
#   * the resumed run's final tree is byte-identical to an uninterrupted
#     run with the same flags (the feed is a pure function of them);
#   * the metrics report records the incr/* spans and counters;
#   * upserts that keep their items (the feed fixes each query's result
#     items) skip the co-occurrence kernel: the reference run recounts
#     fewer pairs than it reclassifies.
# VARIANT picks the similarity variant of the seed build and of both watch
# runs (default threshold-jaccard; `VARIANT=exact` drives the Exact
# classifier through checkpoint, kill -9 and --resume).
set -euo pipefail
cd "$(dirname "$0")/.."

OCTREE=${OCTREE:-target/release/octree}
SCALE=${SCALE:-0.05}
# Enough batches that a kill fired right after the first publish always
# lands mid-stream, never after the final batch.
BATCHES=${BATCHES:-12}
VARIANT=${VARIANT:-threshold-jaccard}
WORK=$(mktemp -d)
SERVER_PID=""
WATCH_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2> /dev/null || true
    [[ -n "$WATCH_PID" ]] && kill -9 "$WATCH_PID" 2> /dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

if [[ ! -x "$OCTREE" ]]; then
    cargo build --release -p oct-cli --bin octree
fi

# A synthetic log plus a seed tree for the daemon to start from.
"$OCTREE" export --dataset A --scale "$SCALE" --out "$WORK/q.tsv" > "$WORK/export.txt"
ITEMS=$(grep -o 'use --items [0-9]*' "$WORK/export.txt" | grep -o '[0-9]*$')
"$OCTREE" build --log "$WORK/q.tsv" --items "$ITEMS" --variant "$VARIANT" \
    --out "$WORK/seed.oct" > /dev/null

"$OCTREE" serve --tree "$WORK/seed.oct" --addr 127.0.0.1:0 --workers 2 --queue 16 \
    > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(grep -o 'listening on [0-9.:]*' "$WORK/serve.log" 2> /dev/null \
        | head -n1 | awk '{print $3}') || true
    [[ -n "$ADDR" ]] && break
    sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "stream smoke: server never came up"; cat "$WORK/serve.log"; exit 1; }

query() { "$OCTREE" query --addr "$ADDR" --send "$1"; }

watch_flags=(--log "$WORK/q.tsv" --items "$ITEMS" --variant "$VARIANT" --days 20 --batches "$BATCHES"
    --seed 11 --recent-days 7 --min-weight 0.5 --checkpoint "$WORK/stream.ckpt")

# Reference run (no daemon, no interruption): the ground-truth final tree.
"$OCTREE" watch "${watch_flags[@]/stream.ckpt/ref.ckpt}" --out "$WORK/ref.oct" \
    --metrics "$WORK/ref_metrics.json" > "$WORK/ref.log"
grep -Eq "batch +$BATCHES/$BATCHES" "$WORK/ref.log" \
    || { echo "stream smoke: reference run incomplete"; cat "$WORK/ref.log"; exit 1; }

# Live run, publishing each batch into the daemon — kill -9 it mid-stream.
# The per-batch publish makes each line an observable commit point, so
# killing after the first "published" line is guaranteed mid-stream.
"$OCTREE" watch "${watch_flags[@]}" --out "$WORK/live.oct" --addr "$ADDR" \
    --metrics "$WORK/watch_metrics.json" > "$WORK/watch1.log" 2>&1 &
WATCH_PID=$!
for _ in $(seq 1 200); do
    grep -q 'published epoch' "$WORK/watch1.log" 2> /dev/null && break
    sleep 0.05
done
kill -9 "$WATCH_PID" 2> /dev/null || true
wait "$WATCH_PID" 2> /dev/null || true
WATCH_PID=""
grep -q 'published epoch' "$WORK/watch1.log" \
    || { echo "stream smoke: first run never published"; cat "$WORK/watch1.log"; exit 1; }
[[ -f "$WORK/stream.ckpt" ]] \
    || { echo "stream smoke: no checkpoint after kill -9"; exit 1; }

# Resume: replays only the remaining batches and finishes the stream.
"$OCTREE" watch "${watch_flags[@]}" --out "$WORK/live.oct" --addr "$ADDR" \
    --metrics "$WORK/watch_metrics.json" --resume > "$WORK/watch2.log" 2>&1 \
    || { echo "stream smoke: resume failed"; cat "$WORK/watch2.log"; exit 1; }
grep -q 'resumed at batch' "$WORK/watch2.log" \
    || { echo "stream smoke: resume started fresh"; cat "$WORK/watch2.log"; exit 1; }
grep -Eq "batch +$BATCHES/$BATCHES" "$WORK/watch2.log" \
    || { echo "stream smoke: resumed run incomplete"; cat "$WORK/watch2.log"; exit 1; }

# The interrupted-and-resumed stream must land on the reference tree.
cmp -s "$WORK/ref.oct" "$WORK/live.oct" \
    || { echo "stream smoke: resumed tree diverged from uninterrupted run"; exit 1; }

# The daemon now serves an epoch advanced by the published batches.
query "PING" | grep -Eq 'epoch=[1-9]' \
    || { echo "stream smoke: served epoch never advanced"; exit 1; }
EPOCH=$(query "PING" | grep -o 'epoch=[0-9]*' | grep -o '[0-9]*')
[[ "$EPOCH" -ge 2 ]] \
    || { echo "stream smoke: expected >= 2 published epochs, got $EPOCH"; exit 1; }

# The telemetry report records the incremental pipeline.
grep -q 'incr/classify' "$WORK/watch_metrics.json" \
    || { echo "stream smoke: incr spans missing from metrics"; exit 1; }
grep -q 'incr/upserts' "$WORK/watch_metrics.json" \
    || { echo "stream smoke: incr counters missing from metrics"; exit 1; }

# Same-items upserts keep their cached counts: over the whole reference
# run the kernel recounts fewer pairs than are reclassified.
python3 - "$WORK/ref_metrics.json" << 'PY'
import json
import sys

counters = json.load(open(sys.argv[1]))["counters"]
recounted = counters.get("incr/recounted_pairs")
reclassified = counters.get("incr/reclassified_pairs")
if recounted is None or reclassified is None or not recounted < reclassified:
    sys.exit(
        "stream smoke: expected incr/recounted_pairs < incr/reclassified_pairs, "
        f"got {recounted} and {reclassified}"
    )
PY

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""
echo "stream smoke ($VARIANT): publish, kill -9, resume, and bit-identical replay all verified"
