#!/usr/bin/env bash
# Warm-cache smoke test for the compiled-artifact (FDBA) schedule cache.
#
# Runs the same campaign twice against one --schedule-cache directory
# (fresh checkpoints each time, so every slice recomputes) and requires:
#   1. the cold cached run's stdout is byte-identical to a cache-off
#      reference — enabling the cache never changes results,
#   2. the warm run's stdout is byte-identical to the cold run's,
#   3. the warm run actually hit the cache (hits > 0, compilations 0 in
#      the [cache] stderr line) — the amortization is real, not vacuous,
#   4. a second `coordinate` pool against the same store logs
#      "artifact reused" from its workers — the cross-process path loads
#      the FDBA file instead of recompiling,
#   5. a second cold run into its own cache directory leaves FDBA and
#      FDBP (slice-*.part) files cmp-identical to the first cold run's —
#      the writers emit no padding, uninitialised or host-order bytes.
#
# Usage: scripts/warm_cache_smoke.sh [path-to-fdbist_cli]
set -u

CLI="${1:-build/examples/fdbist_cli}"
DESIGN=lp
GEN=lfsrd
VECTORS=512

if [[ ! -x "$CLI" ]]; then
  echo "warm_cache_smoke: $CLI not found or not executable" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
  echo "warm_cache_smoke: FAIL — $*" >&2
  for log in "$workdir"/*.log; do
    [[ -f "$log" ]] || continue
    echo "---- $log ----" >&2
    cat "$log" >&2
  done
  exit 1
}

cache="$workdir/sched-cache"

echo "== reference: cache-off campaign =="
"$CLI" campaign $DESIGN $GEN $VECTORS --no-schedule-cache \
  --checkpoint "$workdir/ck-ref" >"$workdir/ref.txt" 2>"$workdir/ref.log" ||
  fail "reference campaign exited $?"
cat "$workdir/ref.txt"

echo "== cold run: empty cache directory =="
"$CLI" campaign $DESIGN $GEN $VECTORS --schedule-cache "$cache" \
  --checkpoint "$workdir/ck-cold" >"$workdir/cold.txt" 2>"$workdir/cold.log" ||
  fail "cold cached campaign exited $?"
diff -u "$workdir/ref.txt" "$workdir/cold.txt" ||
  fail "cold cached output differs from the cache-off reference"
ls "$cache"/fdba-*.fdba >/dev/null 2>&1 ||
  fail "cold run left no FDBA file in the cache directory"

echo "== byte determinism: a second cold run into its own cache =="
"$CLI" campaign $DESIGN $GEN $VECTORS --schedule-cache "$workdir/sched-cache-2" \
  --checkpoint "$workdir/ck-cold2" >"$workdir/cold2.txt" 2>"$workdir/cold2.log" ||
  fail "second cold cached campaign exited $?"
# same_files DIR-A DIR-B GLOB: both directories hold the same GLOB files,
# byte for byte.
same_files() {
  local n=0 f
  for f in "$1"/$3; do
    [[ -f "$f" ]] || fail "no $3 files in $1"
    cmp -s "$f" "$2/${f##*/}" || fail "${f##*/} differs between $1 and $2"
    n=$((n + 1))
  done
  [[ $(ls "$2"/$3 | wc -l) -eq $n ]] || fail "$2 holds extra $3 files"
  echo "$n $3 files byte-identical"
}
same_files "$cache" "$workdir/sched-cache-2" 'fdba-*.fdba'
same_files "$workdir/ck-cold" "$workdir/ck-cold2" 'slice-*.part'

echo "== warm run: same cache directory, fresh checkpoint =="
"$CLI" campaign $DESIGN $GEN $VECTORS --schedule-cache "$cache" \
  --checkpoint "$workdir/ck-warm" >"$workdir/warm.txt" 2>"$workdir/warm.log" ||
  fail "warm cached campaign exited $?"
diff -u "$workdir/cold.txt" "$workdir/warm.txt" ||
  fail "warm cached output differs from the cold run"

# The warm [cache] stderr line must show a hit and zero compilations:
#   [cache] artifact hits mem M disk D, misses 0, ..., schedule compilations 0
cache_line=$(grep '^\[cache\]' "$workdir/warm.log") ||
  fail "warm run printed no [cache] stats line"
echo "$cache_line"
mem_hits=$(echo "$cache_line" | sed -E 's/.*hits mem ([0-9]+).*/\1/')
disk_hits=$(echo "$cache_line" | sed -E 's/.*disk ([0-9]+).*/\1/')
hits=$((mem_hits + disk_hits))
[[ "$hits" -gt 0 ]] || fail "warm run reported zero cache hits"
echo "$cache_line" | grep -q 'schedule compilations 0' ||
  fail "warm run still compiled a schedule"

echo "== distributed warm run: workers load the shared store =="
"$CLI" coordinate $DESIGN $GEN $VECTORS --dir "$workdir/dist" --workers 2 \
  --slice-faults 1500 --schedule-cache "$cache" \
  >"$workdir/dist.txt" 2>"$workdir/dist.log" ||
  fail "distributed cached run exited $?"
grep -q "artifact reused" "$workdir/dist.log" ||
  fail "no worker reported reusing the cached artifact"

# coordinate prints the same coverage line as campaign, so the
# distributed run must also match byte-for-byte.
diff -u "$workdir/ref.txt" "$workdir/dist.txt" ||
  fail "distributed cached output differs from the reference"

echo "warm_cache_smoke: PASS — byte-identical output cache-off/cold/warm," \
     "byte-identical FDBA/FDBP files across cold runs, warm hits $hits," \
     "distributed workers reused the stored artifact"
