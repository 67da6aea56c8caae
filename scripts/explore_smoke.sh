#!/usr/bin/env sh
# Analytical-twin exploration smoke: run a twin-gated `ringsim explore`
# twice over one disk cache and assert the gate actually gates — both
# passes must avoid simulations relative to the exhaustive space, the
# warm pass must be answered entirely from the result store (plus the
# persisted profile cache), and the two passes must print byte-identical
# Pareto frontiers. A third exhaustive pass cross-checks that the twin's
# frontier is the real one, not just a stable wrong answer.
#
#   scripts/explore_smoke.sh [INSTS] [WARMUP]
#
# Exits non-zero on any assertion failure. Used by the CI explore-smoke
# job; instruction budgets are reduced there, so this checks gating
# mechanics and determinism — the accuracy numbers (dse.twin_mape_pct,
# dse.frontier_recall) are measured by the explore_funnel workload of
# `go run ./benchmark`.
set -eu
cd "$(dirname "$0")/.."

INSTS="${1:-20000}"
WARMUP="${2:-4000}"
AXES='arch=ring,conv;clusters=4,8'
PROGS='gcc,swim'
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

echo "explore-smoke: building ringsim"
go build -o "$TMP/bin/" ./cmd/ringsim

run_explore() {
    # $1 = output log, remaining args appended to the explore command.
    out="$1"; shift
    "$TMP/bin/ringsim" explore -axes "$AXES" -clusters 4 -progs "$PROGS" \
        -insts "$INSTS" -warmup "$WARMUP" -cache-dir "$TMP/cache" "$@" \
        >"$out" 2>&1 \
        || { echo "explore-smoke: FAIL: ringsim explore"; cat "$out"; exit 1; }
}

twinline() {
    # "twin: P predictions, A sims avoided, V candidates verified, ..."
    sed -n 's/^twin: \([0-9][0-9]*\) predictions, \([0-9][0-9]*\) sims avoided, \([0-9][0-9]*\) candidates verified.*/\1 \2 \3/p' "$1"
}

echo "explore-smoke: twin pass 1 (cold cache)"
run_explore "$TMP/pass1.log" -twin on
set -- $(twinline "$TMP/pass1.log")
PRED1="${1:-}" AVOID1="${2:-}" VER1="${3:-}"
[ -n "$PRED1" ] || { echo "explore-smoke: FAIL: no twin summary in pass 1"; cat "$TMP/pass1.log"; exit 1; }
echo "explore-smoke: pass 1: $PRED1 predictions, $AVOID1 sims avoided, $VER1 verified"
[ "$PRED1" -gt 0 ] || { echo "explore-smoke: FAIL: twin made no predictions"; exit 1; }
[ "$AVOID1" -gt 0 ] || { echo "explore-smoke: FAIL: cold twin pass avoided no simulations"; exit 1; }

echo "explore-smoke: twin pass 2 (warm cache)"
run_explore "$TMP/pass2.log" -twin on
set -- $(twinline "$TMP/pass2.log")
PRED2="${1:-}" AVOID2="${2:-}" VER2="${3:-}"
echo "explore-smoke: pass 2: $PRED2 predictions, $AVOID2 sims avoided, $VER2 verified"
[ "${AVOID2:-0}" -gt 0 ] || { echo "explore-smoke: FAIL: warm twin pass avoided no simulations"; exit 1; }
grep -q 'simulations: 0 run' "$TMP/pass2.log" \
    || { echo "explore-smoke: FAIL: warm pass ran fresh simulations (expected 100% store hits)"; cat "$TMP/pass2.log"; exit 1; }

# Determinism: the two twin passes must print byte-identical frontiers.
sed -n '/^Pareto frontier/,$p' "$TMP/pass1.log" >"$TMP/front1"
sed -n '/^Pareto frontier/,$p' "$TMP/pass2.log" >"$TMP/front2"
cmp -s "$TMP/front1" "$TMP/front2" \
    || { echo "explore-smoke: FAIL: twin passes printed different frontiers"; diff "$TMP/front1" "$TMP/front2" || true; exit 1; }

echo "explore-smoke: exhaustive cross-check (-twin off)"
run_explore "$TMP/exact.log" -twin off
grep -q '^twin:' "$TMP/exact.log" \
    && { echo "explore-smoke: FAIL: -twin off printed twin accounting"; cat "$TMP/exact.log"; exit 1; }
sed -n '/^Pareto frontier/,$p' "$TMP/exact.log" >"$TMP/front3"
cmp -s "$TMP/front1" "$TMP/front3" \
    || { echo "explore-smoke: FAIL: twin frontier differs from the exhaustive frontier"; diff "$TMP/front1" "$TMP/front3" || true; exit 1; }

# The twin must also reject bad knob values with an actionable error.
if "$TMP/bin/ringsim" explore -axes "$AXES" -progs "$PROGS" -twin fast >"$TMP/bad.log" 2>&1; then
    echo "explore-smoke: FAIL: -twin fast was accepted"; exit 1
fi
grep -q 'legal values: on, off, auto' "$TMP/bad.log" \
    || { echo "explore-smoke: FAIL: bad -twin error does not list legal values"; cat "$TMP/bad.log"; exit 1; }

# Sampled pass: the search tier runs at sampled fidelity (explicit small
# parameters — the smoke budget is far below DefaultSampling's interval)
# and the final frontier is re-scored exactly, so it must equal the
# exhaustive frontier byte-for-byte. The fidelity line is the error gate:
# a confirmed frontier that differed would mean sampled-tier error large
# enough to misrank candidates at this budget.
FIDELITY='sampled(4000,1000,500)'
echo "explore-smoke: sampled pass (-fidelity $FIDELITY)"
run_explore "$TMP/sampled.log" -twin off -fidelity "$FIDELITY"
FIDLINE="$(sed -n 's/^fidelity: \(.*\) search tier (\([0-9][0-9]*\) sampled sims), \([0-9][0-9]*\) frontier candidates confirmed exact$/\1 \2 \3/p' "$TMP/sampled.log")"
set -- $FIDLINE
SPEC="${1:-}" SSIMS="${2:-}" CONFIRMS="${3:-}"
[ "$SPEC" = "$FIDELITY" ] || { echo "explore-smoke: FAIL: no fidelity accounting in sampled pass"; cat "$TMP/sampled.log"; exit 1; }
[ "${SSIMS:-0}" -gt 0 ] || { echo "explore-smoke: FAIL: sampled pass ran no sampled simulations"; cat "$TMP/sampled.log"; exit 1; }
[ "${CONFIRMS:-0}" -gt 0 ] || { echo "explore-smoke: FAIL: sampled pass confirmed nothing exact"; cat "$TMP/sampled.log"; exit 1; }
echo "explore-smoke: sampled pass: $SSIMS sampled sims, $CONFIRMS exact confirms"
sed -n '/^Pareto frontier/,$p' "$TMP/sampled.log" >"$TMP/front4"
cmp -s "$TMP/front3" "$TMP/front4" \
    || { echo "explore-smoke: FAIL: sampled-confirmed frontier differs from the exhaustive frontier"; diff "$TMP/front3" "$TMP/front4" || true; exit 1; }

# Bad fidelity values are refused at the flag, like bad -twin values.
if "$TMP/bin/ringsim" explore -axes "$AXES" -progs "$PROGS" -fidelity fast >"$TMP/badfid.log" 2>&1; then
    echo "explore-smoke: FAIL: -fidelity fast was accepted"; exit 1
fi

# Service side: a sampled run through ringsimd must surface the sampled
# execution counters on /metrics.
echo "explore-smoke: ringsimd sampled /metrics counters"
go build -o "$TMP/bin/" ./cmd/ringsimd
ADDR="127.0.0.1:18090"
BASE="http://$ADDR"
"$TMP/bin/ringsimd" -addr "$ADDR" -journal-dir none >"$TMP/ringsimd.log" 2>&1 &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
KEY="$(curl -sf "$BASE/v1/runs" -d "{\"paper\":{\"arch\":\"ring\",\"clusters\":4,\"iw\":2,\"buses\":1},\"program\":\"gcc\",\"insts\":$INSTS,\"warmup\":$WARMUP,\"fidelity\":\"$FIDELITY\"}" \
    | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' | head -1)"
[ -n "$KEY" ] || { echo "explore-smoke: FAIL: sampled /v1/runs submission rejected"; cat "$TMP/ringsimd.log"; exit 1; }
for _ in $(seq 1 50); do
    STATUS="$(curl -sf "$BASE/v1/runs/$KEY" | sed -n 's/.*"status": *"\([a-z]*\)".*/\1/p' | head -1)"
    [ "$STATUS" = "done" ] && break
    sleep 0.2
done
[ "$STATUS" = "done" ] || { echo "explore-smoke: FAIL: sampled run never finished (status: ${STATUS:-none})"; exit 1; }
curl -sf "$BASE/metrics" >"$TMP/metrics.txt"
for metric in ringsimd_sampled_runs_total ringsimd_sampled_ff_insts_total ringsimd_sampled_detailed_insts_total; do
    grep -q "^$metric " "$TMP/metrics.txt" \
        || { echo "explore-smoke: FAIL: /metrics lacks $metric"; exit 1; }
done
SAMPLED_RUNS="$(sed -n 's/^ringsimd_sampled_runs_total \([0-9][0-9]*\)$/\1/p' "$TMP/metrics.txt")"
[ "${SAMPLED_RUNS:-0}" -ge 1 ] \
    || { echo "explore-smoke: FAIL: ringsimd_sampled_runs_total is ${SAMPLED_RUNS:-0} after a sampled run"; exit 1; }

echo "explore-smoke: PASS"
