#!/usr/bin/env sh
# Fleet end-to-end smoke: start a dispatch-only ringsimd coordinator and
# two ringsim-worker processes on localhost, drive the Figure 6 grid
# through examples/client twice, and assert (1) the fleet actually
# executed the first pass remotely, (2) the coordinator materialized no
# trace doing so (the workers generate what they replay) and (3) the
# second pass was answered entirely from the content-addressed cache.
#
# A plain (no -fleet) ringsimd then runs the same grid: one dispatch path
# means the same Figure 6 table byte for byte, and workload-major feeding
# means its trace cache never held the whole sweep's streams at once.
#
# A worker-kill pass submits a fresh sweep, kill -9s one worker while it
# holds leases, starts a replacement, and asserts every member still
# finishes with its leases requeued.
#
# A last pass proves crash safety: a fresh sweep is submitted, the
# coordinator is kill -9'd mid-sweep, restarted over the same cache +
# journal directories, and `ringsim attach` re-attaches by the durable
# sweep id and drives it to completion — with the journal replay counter
# up and the coordinator still having simulated nothing locally.
#
#   scripts/fleet_smoke.sh [INSTS] [WARMUP]
#
# Exits non-zero on any assertion failure. Used by the CI fleet-smoke job.
set -eu
cd "$(dirname "$0")/.."

INSTS="${1:-20000}"
WARMUP="${2:-4000}"
ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
PIDS=""

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building binaries"
go build -o "$TMP/bin/" ./cmd/ringsimd ./cmd/ringsim-worker ./cmd/ringsim
go build -o "$TMP/bin/client" ./examples/client

echo "fleet-smoke: starting coordinator on $ADDR (dispatch-only)"
"$TMP/bin/ringsimd" -addr "$ADDR" -fleet -workers -1 -lease-ttl 10s \
    -cache-dir "$TMP/cache" >"$TMP/coordinator.log" 2>&1 &
COORD_PID=$!
PIDS="$PIDS $COORD_PID"

# Wait for the coordinator to listen, then attach the workers.
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done

start_worker() {
    "$TMP/bin/ringsim-worker" -coordinator "$BASE" -name "smoke-$1" \
        -poll 50ms >"$TMP/worker-$1.log" 2>&1 &
    WORKER_PID=$!
    PIDS="$PIDS $WORKER_PID"
}
# json_int NAME prints the first integer field NAME of the JSON on stdin,
# whatever its whitespace: the daemon's replies are compact, one line.
json_int() {
    tr -d ' \t\r\n' | grep -o "\"$1\":[0-9][0-9]*" | head -1 | cut -d: -f2
}
start_worker 1
WORKER1_PID=$WORKER_PID
start_worker 2
workers=0
for _ in $(seq 1 50); do
    workers="$(curl -sf "$BASE/v1/fleet" | json_int workers)"
    [ "${workers:-0}" -ge 2 ] && break
    sleep 0.2
done
echo "fleet-smoke: $workers workers registered"
[ "${workers:-0}" -ge 2 ] || { echo "fleet-smoke: FAIL: workers never registered"; exit 1; }

echo "fleet-smoke: first pass (cold cache)"
"$TMP/bin/client" -addr "$BASE" -insts "$INSTS" -warmup "$WARMUP" >"$TMP/pass1.log" 2>&1 \
    || { echo "fleet-smoke: FAIL: first client pass"; cat "$TMP/pass1.log"; exit 1; }

metrics="$(curl -sf "$BASE/metrics")"
metric() {
    printf '%s\n' "$metrics" | awk -v name="$1" '$1 == name {print $2}'
}

# The workers generate every trace they replay: a dispatch-only
# coordinator simulates nothing, so it must never have materialized one.
misses="$(metric ringsimd_trace_cache_misses_total)"
peak="$(metric ringsimd_trace_cache_peak_bytes)"
echo "fleet-smoke: coordinator trace_cache_misses=$misses trace_cache_peak_bytes=$peak after pass 1"
[ "${misses:-x}" = 0 ] && [ "${peak:-x}" = 0 ] \
    || { echo "fleet-smoke: FAIL: the dispatch-only coordinator materialized traces"; exit 1; }

echo "fleet-smoke: second pass (warm cache)"
"$TMP/bin/client" -addr "$BASE" -insts "$INSTS" -warmup "$WARMUP" >"$TMP/pass2.log" 2>&1 \
    || { echo "fleet-smoke: FAIL: second client pass"; cat "$TMP/pass2.log"; exit 1; }

metrics="$(curl -sf "$BASE/metrics")"
remote="$(metric ringsimd_fleet_remote_runs_total)"
hits="$(metric ringsimd_cache_hits_total)"
started="$(metric ringsimd_runs_started_total)"
ratio="$(metric ringsimd_cache_hit_ratio)"
echo "fleet-smoke: remote_runs=$remote cache_hits=$hits local_started=$started hit_ratio=$ratio"

# 260 grid members: pass 1 all remote, pass 2 all cache hits → ratio 0.5.
[ "${remote:-0}" -ge 260 ] || { echo "fleet-smoke: FAIL: expected >=260 remote runs"; exit 1; }
[ "${hits:-0}" -ge 260 ] || { echo "fleet-smoke: FAIL: expected >=260 cache hits on the second pass"; exit 1; }
[ "${started:-0}" -eq 0 ] || { echo "fleet-smoke: FAIL: coordinator simulated locally"; exit 1; }
awk -v r="${ratio:-0}" 'BEGIN { exit !(r >= 0.45) }' \
    || { echo "fleet-smoke: FAIL: cache-hit ratio $ratio < 0.45"; exit 1; }

# The Figure 6 table must be identical across passes (cached results are
# the same records).
tail -n 8 "$TMP/pass1.log" >"$TMP/tbl1"
tail -n 8 "$TMP/pass2.log" >"$TMP/tbl2"
cmp -s "$TMP/tbl1" "$TMP/tbl2" \
    || { echo "fleet-smoke: FAIL: cached pass printed a different Figure 6 table"; diff "$TMP/tbl1" "$TMP/tbl2" || true; exit 1; }

# ---- Plain pass: the same grid on a daemon with no fleet ----
PLAIN_ADDR="127.0.0.1:18081"
echo "fleet-smoke: plain ringsimd on $PLAIN_ADDR, same grid"
"$TMP/bin/ringsimd" -addr "$PLAIN_ADDR" -cache-dir "$TMP/plain-cache" >"$TMP/plain.log" 2>&1 &
PLAIN_PID=$!
PIDS="$PIDS $PLAIN_PID"
for _ in $(seq 1 50); do
    if curl -sf "http://$PLAIN_ADDR/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$TMP/bin/client" -addr "http://$PLAIN_ADDR" -insts "$INSTS" -warmup "$WARMUP" >"$TMP/plain-pass.log" 2>&1 \
    || { echo "fleet-smoke: FAIL: plain client pass"; cat "$TMP/plain-pass.log"; exit 1; }
tail -n 8 "$TMP/plain-pass.log" >"$TMP/tbl-plain"
cmp -s "$TMP/tbl1" "$TMP/tbl-plain" \
    || { echo "fleet-smoke: FAIL: plain daemon printed a different Figure 6 table than the fleet"; diff "$TMP/tbl1" "$TMP/tbl-plain" || true; exit 1; }
peak="$(curl -sf "http://$PLAIN_ADDR/metrics" | awk '$1 == "ringsimd_trace_cache_peak_bytes" {print $2}')"
# 26 programs, one (insts + warmup)-record stream each, at no less than
# 5.8 bytes a record: the smallest any of the 26 programs' stores measures
# (crafty, 5.81-5.86 B/inst from 24k to 350k instructions, allocation
# slack included), so holding every stream at once cannot pass.
sweep_bytes=$((26 * (INSTS + WARMUP) * 58 / 10))
echo "fleet-smoke: plain daemon trace_cache_peak_bytes=$peak of $sweep_bytes in the sweep's streams"
[ "${peak:-0}" -gt 0 ] && [ "$peak" -lt "$sweep_bytes" ] \
    || { echo "fleet-smoke: FAIL: the plain daemon held the whole sweep's traces at once"; exit 1; }
kill "$PLAIN_PID" 2>/dev/null || true

# ---- Worker-kill pass: kill -9 one worker mid-sweep, start a replacement ----
# Distinct instruction count → every member is cold.
INSTSK=$((INSTS + 2222))
echo "fleet-smoke: worker-kill pass (insts=$INSTSK)"
metrics="$(curl -sf "$BASE/metrics")"
remote_before="$(metric ringsimd_fleet_remote_runs_total)"
requeues_before="$(metric ringsimd_fleet_requeues_total)"
"$TMP/bin/client" -addr "$BASE" -insts "$INSTSK" -warmup "$WARMUP" \
    >"$TMP/passk.log" 2>&1 &
CLIENTK_PID=$!

# leases_of NAME prints the leases the named worker holds right now.
leases_of() {
    curl -sf "$BASE/v1/fleet" | tr -d ' \t\r\n' | tr '{}' '\n\n' | awk -v want="\"name\":\"$1\"" '
        index($0, want) && match($0, /"leases":[0-9]+/) { print substr($0, RSTART + 9, RLENGTH - 9) }'
}
# Wait until the fleet has done part of the sweep and worker 1 holds
# leases, so its death strands work that must be requeued. The worker is
# stopped before its leases are read: a running worker could complete its
# batch between the read and the kill, leaving nothing to requeue. A
# stopped one holds what was read (the pause lets a completion already on
# the wire land first); if it holds nothing, it resumes and the wait goes on.
donek=0
for _ in $(seq 1 300); do
    m="$(curl -sf "$BASE/metrics")" || break
    donek="$(printf '%s\n' "$m" | awk -v n=ringsimd_fleet_remote_runs_total '$1 == n {print $2}')"
    if [ "${donek:-0}" -ge "$((remote_before + 20))" ]; then
        kill -STOP "$WORKER1_PID"
        sleep 0.2
        [ "$(leases_of smoke-1)" -ge 1 ] 2>/dev/null && break
        kill -CONT "$WORKER1_PID"
    fi
    sleep 0.1
done
echo "fleet-smoke: kill -9 worker smoke-1 (pid $WORKER1_PID) with $((${donek:-0} - remote_before)) of 260 members done"
kill -9 "$WORKER1_PID"
start_worker 3
wait "$CLIENTK_PID" \
    || { echo "fleet-smoke: FAIL: worker-kill pass did not finish"; cat "$TMP/passk.log"; exit 1; }
SWEEPK_ID="$(sed -n 's/^submitted \(sweep-[0-9a-f]*\).*/\1/p' "$TMP/passk.log" | head -1)"
view="$(curl -sf "$BASE/v1/sweeps/$SWEEPK_ID")"
donek="$(printf '%s\n' "$view" | json_int done)"
failedk="$(printf '%s\n' "$view" | json_int failed)"
metrics="$(curl -sf "$BASE/metrics")"
requeues=$(($(metric ringsimd_fleet_requeues_total) - requeues_before))
echo "fleet-smoke: worker-kill sweep $SWEEPK_ID: $donek/260 done, $failedk failed, $requeues leases requeued"
[ "$donek" = 260 ] && [ "$failedk" = 0 ] \
    || { echo "fleet-smoke: FAIL: worker-kill sweep incomplete"; exit 1; }
[ "$requeues" -ge 1 ] \
    || { echo "fleet-smoke: FAIL: the killed worker's leases were never requeued"; exit 1; }

# ---- Last pass: kill -9 the coordinator mid-sweep, restart, re-attach ----
# Distinct instruction count → every member is cold; the sweep cannot be
# answered from the pass-1/2 cache.
INSTS3=$((INSTS + 1111))
echo "fleet-smoke: coordinator crash pass (insts=$INSTS3)"
remote_before="$(metric ringsimd_fleet_remote_runs_total)"
"$TMP/bin/client" -addr "$BASE" -insts "$INSTS3" -warmup "$WARMUP" \
    >"$TMP/pass3.log" 2>&1 || true &
CLIENT3_PID=$!

# Grab the durable sweep id the client was handed.
SWEEP_ID=""
for _ in $(seq 1 100); do
    SWEEP_ID="$(sed -n 's/^submitted \(sweep-[0-9a-f]*\).*/\1/p' "$TMP/pass3.log" | head -1)"
    [ -n "$SWEEP_ID" ] && break
    sleep 0.1
done
[ -n "$SWEEP_ID" ] || { echo "fleet-smoke: FAIL: crash pass never got a sweep id"; cat "$TMP/pass3.log"; exit 1; }

# Wait until the fleet has genuinely executed part of the sweep, then
# pull the plug — no graceful drain, no cleanup.
for _ in $(seq 1 300); do
    m="$(curl -sf "$BASE/metrics")" || break
    done3="$(printf '%s\n' "$m" | awk -v n=ringsimd_fleet_remote_runs_total '$1 == n {print $2}')"
    [ "${done3:-0}" -ge "$((remote_before + 20))" ] && break
    sleep 0.1
done
echo "fleet-smoke: kill -9 coordinator (pid $COORD_PID) with $((${done3:-0} - remote_before)) of 260 members done"
kill -9 "$COORD_PID"
wait "$CLIENT3_PID" 2>/dev/null || true

echo "fleet-smoke: restarting coordinator over the same cache + journal"
"$TMP/bin/ringsimd" -addr "$ADDR" -fleet -workers -1 -lease-ttl 10s \
    -cache-dir "$TMP/cache" >"$TMP/coordinator2.log" 2>&1 &
PIDS="$PIDS $!"
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
# The workers notice the lost registration and transparently re-attach.
workers=0
for _ in $(seq 1 100); do
    workers="$(curl -sf "$BASE/v1/fleet" | json_int workers)"
    [ "${workers:-0}" -ge 2 ] && break
    sleep 0.2
done
[ "${workers:-0}" -ge 2 ] || { echo "fleet-smoke: FAIL: workers never re-registered after restart"; exit 1; }

echo "fleet-smoke: re-attaching to $SWEEP_ID"
"$TMP/bin/ringsim" attach -addr "$BASE" "$SWEEP_ID" >"$TMP/attach.log" 2>&1 \
    || { echo "fleet-smoke: FAIL: re-attached sweep did not finish"; cat "$TMP/attach.log"; exit 1; }
grep -q "260/260 done" "$TMP/attach.log" \
    || { echo "fleet-smoke: FAIL: re-attached sweep incomplete"; cat "$TMP/attach.log"; exit 1; }

metrics="$(curl -sf "$BASE/metrics")"
replayed="$(metric ringsimd_journal_replayed_total)"
started="$(metric ringsimd_runs_started_total)"
echo "fleet-smoke: journal_replayed=$replayed local_started=$started after restart"
[ "${replayed:-0}" -ge 1 ] || { echo "fleet-smoke: FAIL: restart replayed nothing from the journal"; exit 1; }
[ "${started:-0}" -eq 0 ] || { echo "fleet-smoke: FAIL: recovered coordinator simulated locally"; exit 1; }

echo "fleet-smoke: PASS"
