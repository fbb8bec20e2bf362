#!/usr/bin/env bash
# Exported-log build smoke: `octree build` with near-duplicate merging on,
# over dataset D's raw query log at scale 0.02, must print its score line
# within 60 s. The merge step once rescanned every intersecting pair after
# each merge and took about 80 s here on a 2-vCPU machine; the incremental
# merge finishes the whole build in about 3 s.
set -euo pipefail
cd "$(dirname "$0")/.."

OCTREE=${OCTREE:-target/release/octree}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$OCTREE" ]]; then
    cargo build --release -p oct-cli --bin octree
fi

"$OCTREE" export --dataset D --scale 0.02 --out "$WORK/d.tsv" > /dev/null
timeout 60 "$OCTREE" build --log "$WORK/d.tsv" --items 24000 \
    --out "$WORK/d.oct" > "$WORK/build.out"
cat "$WORK/build.out"
grep -q '^score .* normalized' "$WORK/build.out"
echo "merge smoke: exported D@0.02 built with merging inside the time limit"
