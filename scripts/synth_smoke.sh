#!/usr/bin/env sh
# Synthetic workload end-to-end smoke: generate a synth spec's stream
# under two equivalent spellings and require equal digests, then run the
# mixstudy fairness study twice over one disk cache and assert the second
# pass simulates NOTHING — every mix and every single-stream baseline
# must be served by content key, which only holds if synth
# canonicalization and seeding are stable across processes.
#
#   scripts/synth_smoke.sh [INSTS] [WARMUP]
#
# Exits non-zero on any assertion failure. Used by the CI synth-smoke job.
set -eu
cd "$(dirname "$0")/.."

INSTS="${1:-20000}"
WARMUP="${2:-4000}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

echo "synth-smoke: building binaries"
go build -o "$TMP/bin/" ./cmd/tracegen ./cmd/ringsim

echo "synth-smoke: generating a synthetic stream under two spellings"
"$TMP/bin/tracegen" -prog 'synth(ilp=8,ws=256K,ld=0.28,phases=2,plen=5000)@3' \
    -n "$INSTS" >"$TMP/gen.log" 2>&1 \
    || { echo "synth-smoke: FAIL: tracegen generate"; cat "$TMP/gen.log"; exit 1; }
grep -q ": $INSTS instructions\$" "$TMP/gen.log" \
    || { echo "synth-smoke: FAIL: generated stream is not $INSTS instructions"; cat "$TMP/gen.log"; exit 1; }

# Regenerating the same spec under another spelling must produce the same
# instructions (cross-process determinism of the canonical spec + seed).
"$TMP/bin/tracegen" -prog 'synth(ld=0.28, ws=262144, plen=5000, phases=2, ilp=8.0)@3' \
    -n "$INSTS" >"$TMP/gen2.log" 2>&1 \
    || { echo "synth-smoke: FAIL: tracegen generate (second spelling)"; cat "$TMP/gen2.log"; exit 1; }
D1="$(sed -n 's/^sha256: //p' "$TMP/gen.log")"
D2="$(sed -n 's/^sha256: //p' "$TMP/gen2.log")"
[ -n "$D1" ] && [ "$D1" = "$D2" ] \
    || { echo "synth-smoke: FAIL: equivalent spec spellings generated different streams ($D1 vs $D2)"; exit 1; }

simulated() {
    sed -n 's/^runs: \([0-9][0-9]*\) simulated, \([0-9][0-9]*\) served.*/\1 \2/p' "$1"
}

echo "synth-smoke: mixstudy first pass (cold cache)"
"$TMP/bin/ringsim" mixstudy -mixes 2 -streams 2,4 -seed 5 \
    -insts "$INSTS" -warmup "$WARMUP" -cache-dir "$TMP/cache" \
    >"$TMP/pass1.log" 2>&1 \
    || { echo "synth-smoke: FAIL: first mixstudy pass"; cat "$TMP/pass1.log"; exit 1; }
set -- $(simulated "$TMP/pass1.log")
SIM1="${1:-}" HIT1="${2:-}"
[ -n "$SIM1" ] || { echo "synth-smoke: FAIL: no summary line in pass 1"; cat "$TMP/pass1.log"; exit 1; }
echo "synth-smoke: pass 1: $SIM1 simulated, $HIT1 store hits"
[ "$SIM1" -gt 0 ] || { echo "synth-smoke: FAIL: cold pass simulated nothing"; exit 1; }
# The study names 32 runs over 18 distinct keys, whatever the budgets:
# 8 mixes and 10 baselines; the other 14 are baselines shared between
# mixes. A batch that simulated a shared baseline twice would count it.
[ "$SIM1 $HIT1" = "18 14" ] \
    || { echo "synth-smoke: FAIL: cold pass: $SIM1 simulated, $HIT1 served (want 18, 14)"; cat "$TMP/pass1.log"; exit 1; }

echo "synth-smoke: mixstudy second pass (warm cache)"
"$TMP/bin/ringsim" mixstudy -mixes 2 -streams 2,4 -seed 5 \
    -insts "$INSTS" -warmup "$WARMUP" -cache-dir "$TMP/cache" \
    >"$TMP/pass2.log" 2>&1 \
    || { echo "synth-smoke: FAIL: second mixstudy pass"; cat "$TMP/pass2.log"; exit 1; }
set -- $(simulated "$TMP/pass2.log")
SIM2="${1:-}" HIT2="${2:-}"
echo "synth-smoke: pass 2: $SIM2 simulated, $HIT2 store hits"
[ "${SIM2:-1}" -eq 0 ] \
    || { echo "synth-smoke: FAIL: warm pass simulated $SIM2 runs (expected 0 — 100% cache hits)"; cat "$TMP/pass2.log"; exit 1; }

# Same study, same store → the printed tables must be identical.
grep -v '^runs:' "$TMP/pass1.log" >"$TMP/tbl1"
grep -v '^runs:' "$TMP/pass2.log" >"$TMP/tbl2"
cmp -s "$TMP/tbl1" "$TMP/tbl2" \
    || { echo "synth-smoke: FAIL: cached pass printed a different study table"; diff "$TMP/tbl1" "$TMP/tbl2" || true; exit 1; }

echo "synth-smoke: PASS"
