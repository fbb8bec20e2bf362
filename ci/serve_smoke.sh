#!/usr/bin/env bash
# Serving smoke test: start the daemon on a real tree, drive it with
# concurrent queries (enough to trigger load shedding), hot-swap the tree
# mid-traffic, then SIGTERM it and assert a graceful drain:
#   * every connection gets a typed one-line answer (OK …, OVERLOADED, ERR),
#     never a hang or a torn response;
#   * the process exits 0 on SIGTERM;
#   * the final metrics report exists and records the shed/served traffic.
set -euo pipefail
cd "$(dirname "$0")/.."

OCTREE=${OCTREE:-target/release/octree}
SCALE=${SCALE:-0.01}
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2> /dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

if [[ ! -x "$OCTREE" ]]; then
    cargo build --release -p oct-cli --bin octree
fi

# A real tree from a synthetic query log.
"$OCTREE" export --dataset A --scale "$SCALE" --out "$WORK/q.tsv" > "$WORK/export.txt"
ITEMS=$(grep -o 'use --items [0-9]*' "$WORK/export.txt" | grep -o '[0-9]*$')
"$OCTREE" build --log "$WORK/q.tsv" --items "$ITEMS" --labels --out "$WORK/a.oct" > /dev/null
# A second tree (different similarity floor) for the hot swap.
"$OCTREE" build --log "$WORK/q.tsv" --items "$ITEMS" --labels --min-frequency 50 \
    --out "$WORK/b.oct" > /dev/null

# Tiny capacity so a modest burst reliably sheds.
"$OCTREE" serve --tree "$WORK/a.oct" --addr 127.0.0.1:0 --workers 2 --queue 2 \
    --deadline-ms 1000 --metrics "$WORK/serve_metrics.json" > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

# Wait for the bound address to appear in the log (port 0 = ephemeral).
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(grep -o 'listening on [0-9.:]*' "$WORK/serve.log" 2> /dev/null \
        | head -n1 | awk '{print $3}') || true
    [[ -n "$ADDR" ]] && break
    sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "serve smoke: server never came up"; cat "$WORK/serve.log"; exit 1; }

query() { "$OCTREE" query --addr "$ADDR" --send "$1"; }

# Sanity: the protocol answers.
query "PING" | grep -q '^OK PONG' || { echo "serve smoke: PING failed"; exit 1; }
query "CATEGORIZE 0,1,2" | grep -q '^OK COVER' || { echo "serve smoke: CATEGORIZE failed"; exit 1; }
query "STATS" | grep -q '^OK STATS' || { echo "serve smoke: STATS failed"; exit 1; }

# Concurrent burst, far over workers+queue: every query must come back with
# a typed line (served or shed), and at least one must be shed.
BURST=40
BURST_PIDS=()
for i in $(seq 1 "$BURST"); do
    query "SCORE $((i % ITEMS)),$(((i + 1) % ITEMS))" > "$WORK/burst.$i" 2>&1 &
    BURST_PIDS+=("$!")
done
# Hot swap mid-burst: published atomically, traffic keeps flowing. The
# swap request itself may be shed by the burst — OVERLOADED is the typed
# "back off and retry" signal, so honor it like a real client would.
for _ in $(seq 1 50); do
    query "SWAP $WORK/b.oct" > "$WORK/swap.txt" || true
    grep -q '^OK SWAPPED' "$WORK/swap.txt" && break
    grep -q '^OVERLOADED' "$WORK/swap.txt" \
        || { echo "serve smoke: hot swap failed"; cat "$WORK/swap.txt"; exit 1; }
    sleep 0.1
done
grep -q '^OK SWAPPED epoch=' "$WORK/swap.txt" \
    || { echo "serve smoke: hot swap never admitted"; cat "$WORK/swap.txt"; exit 1; }
# Wait only on the burst clients — a bare `wait` would block on the server.
for pid in "${BURST_PIDS[@]}"; do
    wait "$pid" || true
done

ANSWERED=0 SHED=0
for i in $(seq 1 "$BURST"); do
    if grep -q '^OK COVER' "$WORK/burst.$i"; then
        ANSWERED=$((ANSWERED + 1))
    elif grep -q '^OVERLOADED queue=' "$WORK/burst.$i"; then
        SHED=$((SHED + 1))
    else
        echo "serve smoke: query $i got no typed response:"
        cat "$WORK/burst.$i"
        exit 1
    fi
done
echo "serve smoke: burst of $BURST → $ANSWERED served, $SHED shed"
[[ "$ANSWERED" -gt 0 ]] || { echo "serve smoke: nothing served"; exit 1; }
[[ "$SHED" -gt 0 ]] || { echo "serve smoke: shedding never triggered"; exit 1; }

# Post-swap queries answer from the new epoch.
query "PING" | grep -Eq 'epoch=[1-9]' || { echo "serve smoke: post-swap epoch wrong"; exit 1; }

# Graceful drain on SIGTERM: clean exit and a flushed metrics report.
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
SERVER_PID=""
[[ "$EXIT" -eq 0 ]] || { echo "serve smoke: drain exited $EXIT"; cat "$WORK/serve.log"; exit 1; }
grep -q 'drained cleanly' "$WORK/serve.log" \
    || { echo "serve smoke: no drain marker"; cat "$WORK/serve.log"; exit 1; }
[[ -s "$WORK/serve_metrics.json" ]] || { echo "serve smoke: metrics report missing"; exit 1; }
grep -q 'serve/shed' "$WORK/serve_metrics.json" \
    || { echo "serve smoke: shed counter missing from report"; exit 1; }
grep -q 'serve/accepted' "$WORK/serve_metrics.json" \
    || { echo "serve smoke: accepted counter missing from report"; exit 1; }
grep -q 'serve/latency' "$WORK/serve_metrics.json" \
    || { echo "serve smoke: latency histogram missing from report"; exit 1; }
echo "serve smoke: graceful drain, typed shedding, and hot swap all verified"
