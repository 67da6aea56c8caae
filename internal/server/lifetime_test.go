package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// useFreshTraceCache swaps the process-wide trace cache for an empty one
// for the length of the test, so its counters are this test's alone.
func useFreshTraceCache(t *testing.T) {
	t.Helper()
	prev := harness.DefaultTraceCache
	harness.DefaultTraceCache = harness.NewTraceCache(64 << 20)
	t.Cleanup(func() { harness.DefaultTraceCache = prev })
}

// expectNoTraces requires that nothing is resident or held in the
// process-wide trace cache.
func expectNoTraces(t *testing.T, when string) harness.TraceCacheStats {
	t.Helper()
	st := harness.DefaultTraceCache.Stats()
	if st.Entries != 0 || st.Held != 0 || st.Bytes != 0 {
		t.Fatalf("%s: trace cache still holds %+v", when, st)
	}
	return st
}

// TestSweepTracesGoWithLastMember: a sweep's members hold their traces
// from submission, so each program is materialized once for the whole grid,
// and the traces are gone the moment the last member settles. A
// resubmission answered from the store touches no trace at all. The four
// lifetime series are on /metrics with the cache's values.
func TestSweepTracesGoWithLastMember(t *testing.T) {
	useFreshTraceCache(t)
	_, hs := newTestServer(t, results.NewMemoryLRU(64))

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if sv = pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone {
		t.Fatalf("sweep: %+v", sv)
	}
	st := expectNoTraces(t, "after the sweep's last member settled")
	if st.Misses != 2 || st.Hits != 2 || st.Dropped != 2 {
		t.Errorf("trace cache = %+v, want gcc and swim built once, replayed once, dropped once", st)
	}

	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if sv = pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone || sv.CacheHits != 4 {
		t.Fatalf("resubmission: %+v", sv)
	}
	if again := expectNoTraces(t, "after the cached resubmission"); again.Misses != st.Misses || again.Hits != st.Hits {
		t.Errorf("a store hit touched the trace cache: %+v, was %+v", again, st)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"ringsimd_trace_cache_held 0",
		"ringsimd_trace_cache_dropped_total 2",
		fmt.Sprintf("ringsimd_trace_cache_peak_bytes %d", st.PeakBytes),
		"ringsimd_trace_cache_fallbacks_total 0",
	} {
		if !strings.Contains(string(text), "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if st.PeakBytes == 0 {
		t.Error("PeakBytes did not move")
	}
}

// TestTerminateAndReplayStrandNoHolds: a coordinator killed mid-sweep lets
// go of everything its queued runs held (the process-wide cache outlives
// the in-process stand-in for a crash), the next generation's replayed
// runs hold and release like fresh ones, and a run refused by a full
// queue never held anything.
func TestTerminateAndReplayStrandNoHolds(t *testing.T) {
	useFreshTraceCache(t)
	dir := t.TempDir()
	srv1, hs1, _ := newDurableServer(t, dir, 1)
	body := sweepBody()
	body["insts"] = 40 * testInsts

	var sv sweepView
	postJSON(t, hs1.URL+"/v1/sweeps", body, http.StatusAccepted, &sv)
	id := sv.ID
	if st := harness.DefaultTraceCache.Stats(); st.Held == 0 {
		t.Fatalf("a queued sweep holds nothing: %+v", st)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for sv.Done == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no member finished before deadline: %+v", sv)
		}
		time.Sleep(2 * time.Millisecond)
		getJSON(t, hs1.URL+"/v1/sweeps/"+id, &sv)
	}
	srv1.Terminate()
	hs1.Close()
	expectNoTraces(t, "after Terminate")

	srv2, hs2, _ := newDurableServer(t, dir, 2)
	if final := pollSweep(t, hs2.URL, id); final.Status != statusDone || final.Done != 4 {
		t.Fatalf("re-attached sweep: %+v", final)
	}
	expectNoTraces(t, "after the replayed sweep settled")
	hs2.Close()
	srv2.Close()
	expectNoTraces(t, "after Close")

	// A refused submission leaves no hold behind.
	srv3, err := New(Options{Workers: 1, QueueDepth: 1, Store: results.NewMemoryLRU(8)})
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for i := uint64(0); i < 30; i++ { // distinct budgets are distinct content keys
		req := harness.Request{Config: harness.PaperConfigs()[0], Workload: workload.Single("gcc"), Insts: 10_000 + i}
		if _, _, err := srv3.submit(req); errors.Is(err, errQueueFull) {
			refused++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if refused == 0 {
		t.Fatal("the one-deep queue refused nothing; test setup broken")
	}
	srv3.Close()
	expectNoTraces(t, "after refused submissions")
}

// TestQueueExplorationMaterializesOncePerTier: a queue-backed exploration
// registers each tier as one batch, fed to the pool one workload after the
// other, and every queued run holds its traces until it settles. Over the
// eight candidates of the sampled search tier and the exact confirmation
// of its frontier, each program is then materialized at most once per
// tier, not once per candidate, and nothing is resident or held once the
// exploration is done.
func TestQueueExplorationMaterializesOncePerTier(t *testing.T) {
	useFreshTraceCache(t)
	_, hs := newTestServer(t, results.NewMemoryLRU(256))
	body := exploreBody()
	body["insts"], body["warmup"] = 12_000, 2_000 // room for the sampled windows
	body["fidelity"] = "sampled(3000,500,200)"
	var ev exploreView
	postJSON(t, hs.URL+"/v1/explore", body, http.StatusAccepted, &ev)
	if ev = pollExplore(t, hs.URL, ev.ID); ev.Status != statusDone || ev.SampledSims == 0 || ev.ExactConfirms == 0 {
		t.Fatalf("a tier did not run: %+v", ev)
	}
	st := expectNoTraces(t, "after the exploration")
	const programs, tiers = 2, 2 // gcc and swim; sampled and exact
	if st.Misses == 0 || st.Misses > programs*tiers {
		t.Errorf("trace cache misses = %d, want 1..%d: each program at most once per tier", st.Misses, programs*tiers)
	}
	if st.Hits+st.Misses != uint64(ev.SimsRun) {
		t.Errorf("trace cache hits+misses = %d, want %d: one Stream call per simulation", st.Hits+st.Misses, ev.SimsRun)
	}
}

// TestOversizedBodiesAre413: every endpoint that decodes a request body
// stops reading at maxBodyBytes and answers 413, whatever the body would
// have said; a body just under the bound is still read to the end and
// judged on its content.
func TestOversizedBodiesAre413(t *testing.T) {
	_, plain := newTestServer(t, results.NewMemoryLRU(8))
	_, coord := newFleetServer(t, results.NewMemoryLRU(8), fleet.CoordinatorOptions{})
	// Valid JSON all the way: only its length is wrong.
	huge := append(append([]byte(`{"program":"`), bytes.Repeat([]byte("a"), maxBodyBytes)...), `"}`...)
	for _, tc := range []struct{ family, url string }{
		{"runs", plain.URL + "/v1/runs"},
		{"runs", plain.URL + "/v1/sweeps"},
		{"explore", plain.URL + "/v1/explore"},
		{"fleet", coord.URL + "/v1/fleet/workers"},
		{"fleet", coord.URL + "/v1/fleet/lease"},
		{"fleet", coord.URL + "/v1/fleet/complete"},
		{"fleet", coord.URL + "/v1/fleet/heartbeat"},
	} {
		resp, err := http.Post(tc.url, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", tc.url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: oversized body got %d, want 413", tc.family, tc.url, resp.StatusCode)
		}
	}
	under := huge[:maxBodyBytes-1] // cut mid-string: read in full, then malformed
	resp, err := http.Post(plain.URL+"/v1/runs", "application/json", bytes.NewReader(under))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body under the bound got %d, want 400", resp.StatusCode)
	}
}
