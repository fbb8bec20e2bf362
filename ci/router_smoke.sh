#!/usr/bin/env bash
# Router chaos smoke: 3 shards × 2 replicas behind the scatter-gather
# router. The fault sequence and the assertions:
#   * kill -9 one replica mid-burst → zero client-visible request
#     failures (every query gets a typed OK, no ERR, no PARTIAL — the
#     shard's second replica covers);
#   * kill the shard's second replica too → responses carry the typed
#     `partial=1 missing=<shard>` marker and STATS reports degraded=1,
#     and repeated identical queries stay byte-identical while degraded
#     (deterministic merge over the fixed live-shard set);
#   * restart both replicas on their old ports → answers recover
#     byte-identical to the pre-kill full-fleet capture;
#   * SIGTERM drains the router cleanly and flushes its metrics report.
set -euo pipefail
cd "$(dirname "$0")/.."

OCTREE=${OCTREE:-target/release/octree}
SCALE=${SCALE:-0.01}
WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in ${PIDS+"${PIDS[@]}"}; do kill -9 "$pid" 2> /dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT
fail() { echo "router smoke: $*"; exit 1; }

if [[ ! -x "$OCTREE" ]]; then
    cargo build --release -p oct-cli --bin octree
fi

# A real tree from a synthetic query log (every replica serves the full
# tree; shards partition the *item universe*, not the tree).
"$OCTREE" export --dataset A --scale "$SCALE" --out "$WORK/q.tsv" > "$WORK/export.txt"
ITEMS=$(grep -o 'use --items [0-9]*' "$WORK/export.txt" | grep -o '[0-9]*$')
"$OCTREE" build --log "$WORK/q.tsv" --items "$ITEMS" --labels --out "$WORK/a.oct" > /dev/null

# Starts (or restarts) a backend replica; $1 names its log, $2 is the bind
# address (127.0.0.1:0 = ephemeral). Sets ADDR_<name> and PID_<name> (no
# command substitution — the PID bookkeeping must land in this shell).
start_backend() {
    local name=$1 bind=${2:-127.0.0.1:0} addr="" pid="" attempt
    for attempt in $(seq 1 20); do
        "$OCTREE" serve --tree "$WORK/a.oct" --addr "$bind" --workers 2 --queue 16 \
            > "$WORK/$name.log" 2>&1 &
        pid=$!
        PIDS+=("$pid")
        for _ in $(seq 1 50); do
            addr=$(grep -o 'listening on [0-9.:]*' "$WORK/$name.log" 2> /dev/null \
                | head -n1 | awk '{print $3}') || true
            [[ -n "$addr" ]] && break
            kill -0 "$pid" 2> /dev/null || break # bind failed; retry
            sleep 0.1
        done
        [[ -n "$addr" ]] && break
        sleep 0.2
    done
    [[ -n "$addr" ]] || { cat "$WORK/$name.log"; fail "replica $name never came up"; }
    eval "ADDR_$name=\$addr"
    eval "PID_$name=\$pid"
}

# 3 shards × 2 replicas.
start_backend s0r0; start_backend s0r1
start_backend s1r0; start_backend s1r1
start_backend s2r0; start_backend s2r1
A00=$ADDR_s0r0 A01=$ADDR_s0r1
A10=$ADDR_s1r0 A11=$ADDR_s1r1
A20=$ADDR_s2r0 A21=$ADDR_s2r1

"$OCTREE" router --shards "$A00,$A01;$A10,$A11;$A20,$A21" --addr 127.0.0.1:0 \
    --metrics "$WORK/router_metrics.json" > "$WORK/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(grep -o 'listening on [0-9.:]*' "$WORK/router.log" 2> /dev/null \
        | head -n1 | awk '{print $3}') || true
    [[ -n "$ADDR" ]] && break
    sleep 0.1
done
[[ -n "$ADDR" ]] || { cat "$WORK/router.log"; fail "router never came up"; }

query() { "$OCTREE" query --addr "$ADDR" --send "$1"; }

# Sanity: the routed protocol answers and the fleet is healthy.
query "PING" | grep -q '^OK PONG' || fail "PING failed"
query "CATEGORIZE 0,1,2" | grep -q '^OK COVER' || fail "CATEGORIZE failed"
query "STATS" | grep -q 'degraded=0' || fail "healthy fleet reported degraded"

# A fixed query list for the determinism captures: a universe-spanning
# request (hits every shard) plus scattered small ones.
SPAN=$(seq -s, 0 39)
QUERY_LIST=("CATEGORIZE $SPAN" "SCORE $SPAN")
for i in 0 1 2 3 4 5 6 7 8 9; do
    QUERY_LIST+=("CATEGORIZE $i,$(((i * 13 + 7) % ITEMS)),$(((i * 29 + 3) % ITEMS))")
done
capture() {
    : > "$1"
    local q
    for q in "${QUERY_LIST[@]}"; do query "$q" >> "$1"; done
}
capture "$WORK/before.txt"
grep -q 'partial=1' "$WORK/before.txt" && fail "full fleet answered partial"
grep -q '^ERR' "$WORK/before.txt" && fail "full fleet answered ERR"

# Concurrent burst through the router; kill -9 one replica mid-burst.
BURST=40
BURST_PIDS=()
for i in $(seq 1 "$BURST"); do
    query "SCORE $((i % ITEMS)),$(((i * 7 + 1) % ITEMS)),$(((i * 31 + 5) % ITEMS))" \
        > "$WORK/burst.$i" 2>&1 &
    BURST_PIDS+=("$!")
done
kill -9 "$PID_s0r0"
for pid in "${BURST_PIDS[@]}"; do
    wait "$pid" || true
done
for i in $(seq 1 "$BURST"); do
    grep -q '^OK COVER' "$WORK/burst.$i" || {
        cat "$WORK/burst.$i"
        fail "burst query $i failed after a single-replica kill"
    }
    grep -q 'partial=1' "$WORK/burst.$i" \
        && fail "burst query $i went partial with the shard's second replica alive"
done
echo "router smoke: $BURST/$BURST burst queries survived a mid-burst replica kill"
query "STATS" | grep -q 'degraded=0' || fail "replica loss must not degrade a covered shard"

# The loadgen satellite pointed at the router: open-loop Poisson arrivals
# with Zipf key skew, zero failed requests.
"$OCTREE" loadgen --addr "$ADDR" --items "$ITEMS" --connections 4 --requests 50 \
    --rps 300 --zipf 1.1 > "$WORK/loadgen.txt"
grep -q 'errors=0 transport=0' "$WORK/loadgen.txt" \
    || { cat "$WORK/loadgen.txt"; fail "loadgen saw failed requests"; }

# Kill the shard's second replica: shard 0 is now fully down. Spanning
# queries must degrade to a typed PARTIAL — never an error.
kill -9 "$PID_s0r1"
PARTIAL=""
for _ in $(seq 1 100); do
    query "CATEGORIZE $SPAN" > "$WORK/partial.txt" 2>&1 || true
    # Settled means: exactly shard 0 missing (not a transient 0,N flap
    # while the health machines mark the killed replicas Down) and the
    # very next repeat byte-identical.
    if grep -qE 'partial=1 missing=0([^,0-9]|$)' "$WORK/partial.txt"; then
        query "CATEGORIZE $SPAN" > "$WORK/partial2.txt" 2>&1 || true
        if cmp -s "$WORK/partial.txt" "$WORK/partial2.txt"; then
            PARTIAL=yes
            break
        fi
    fi
    sleep 0.1
done
[[ -n "$PARTIAL" ]] || { cat "$WORK/partial.txt"; fail "dead shard never settled into PARTIAL"; }
grep -q '^OK COVER' "$WORK/partial.txt" || fail "PARTIAL response is not a typed OK"
query "STATS" | grep -q 'degraded=1' || fail "dead shard must report degraded=1"
# Deterministic while degraded: byte-identical repeats over the fixed
# live-shard set.
query "CATEGORIZE $SPAN" > "$WORK/partial3.txt"
cmp -s "$WORK/partial2.txt" "$WORK/partial3.txt" \
    || { diff "$WORK/partial2.txt" "$WORK/partial3.txt" | head; fail "degraded answers are not deterministic"; }
echo "router smoke: whole-shard loss degraded to deterministic typed PARTIAL"

# Recovery: restart both replicas on their old ports and wait for the
# probe loop to re-admit them.
start_backend s0r0b "$A00" > /dev/null
start_backend s0r1b "$A01" > /dev/null
RECOVERED=""
for _ in $(seq 1 200); do
    query "CATEGORIZE $SPAN" > "$WORK/recover.txt" 2>&1 || true
    if grep -q '^OK COVER' "$WORK/recover.txt" \
        && ! grep -q 'partial=1' "$WORK/recover.txt"; then
        RECOVERED=yes
        break
    fi
    sleep 0.1
done
[[ -n "$RECOVERED" ]] || { cat "$WORK/recover.txt"; fail "fleet never recovered"; }

# Full-fleet answers are byte-identical to the pre-kill capture, twice
# (recovered-state determinism across repeated runs).
capture "$WORK/after.txt"
cmp -s "$WORK/before.txt" "$WORK/after.txt" \
    || { diff "$WORK/before.txt" "$WORK/after.txt" | head; fail "recovered answers differ from the pre-kill capture"; }
capture "$WORK/after2.txt"
cmp -s "$WORK/after.txt" "$WORK/after2.txt" || fail "recovered answers are not deterministic"
# The degraded flag is sticky: the router served partial answers at some
# point in its life, and STATS keeps saying so after recovery.
query "STATS" | grep -q 'degraded=1' || fail "sticky degraded flag was lost on recovery"
echo "router smoke: recovered byte-identical to the pre-kill capture"

# Graceful drain on SIGTERM: clean exit and a flushed metrics report with
# the fan-out instrumentation.
kill -TERM "$ROUTER_PID"
EXIT=0
wait "$ROUTER_PID" || EXIT=$?
[[ "$EXIT" -eq 0 ]] || { cat "$WORK/router.log"; fail "router drain exited $EXIT"; }
grep -q 'drained cleanly' "$WORK/router.log" || fail "no drain marker in the router log"
[[ -s "$WORK/router_metrics.json" ]] || fail "router metrics report missing"
grep -q 'router/fanout_latency' "$WORK/router_metrics.json" \
    || fail "fan-out latency histogram missing from the report"
grep -q 'router/partial' "$WORK/router_metrics.json" \
    || fail "partial counter missing from the report"
# The shared daemon lifecycle's metric names, as oct-serve writes them.
for name in router/accepted router/queue_depth; do
    grep -q "\"$name\"" "$WORK/router_metrics.json" \
        || fail "$name missing from the report"
done
echo "router smoke: failover, hedging fleet, PARTIAL degradation, and drain all verified"
