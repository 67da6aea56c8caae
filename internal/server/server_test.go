package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// testInsts keeps e2e simulations fast while still exercising the full
// pipeline (fetch through commit, warm-up reset included).
const (
	testInsts  = 2_000
	testWarmup = 500
)

// newTestServer wires a server with the given store onto httptest.
func newTestServer(t *testing.T, store results.Store) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{Workers: 2, QueueDepth: 64, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

// sweepBody builds the 2-config × 2-program acceptance grid.
func sweepBody() map[string]any {
	return map[string]any{
		"configs": []map[string]any{
			{"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1}},
			{"paper": map[string]any{"arch": "conv", "clusters": 4, "iw": 2, "buses": 1}},
		},
		"programs": []string{"gcc", "swim"},
		"insts":    testInsts,
		"warmup":   testWarmup,
	}
}

// postJSON POSTs v and decodes the response into out, requiring status.
func postJSON(t *testing.T, url string, v any, wantStatus int, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s = %d (want %d): %v", url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// getJSON GETs url into out, requiring status 200.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// pollSweep polls until the sweep leaves the running state.
func pollSweep(t *testing.T, base, id string) sweepView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var sv sweepView
		getJSON(t, base+"/v1/sweeps/"+id, &sv)
		if sv.Status != statusRunning {
			return sv
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not finish: %+v", id, sv)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepE2E is the acceptance scenario: a 2×2 sweep completes with
// results identical to direct harness.Execute calls, and an identical
// resubmission is served entirely from cache.
func TestSweepE2E(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(64))

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if sv.ID == "" || sv.Total != 4 {
		t.Fatalf("submit: %+v", sv)
	}

	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Done != 4 || sv.Failed != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", sv)
	}
	if len(sv.Results) != 4 {
		t.Fatalf("expected 4 results, got %d", len(sv.Results))
	}

	// Results must match a direct harness.Execute of the same grid,
	// bit for bit (the simulator is deterministic).
	ring := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	conv := core.MustPaperConfig(core.ArchConv, 4, 2, 1)
	reqs, err := harness.Expand([]core.Config{ring, conv}, []string{"gcc", "swim"}, testInsts, testWarmup)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("Expand returned %d requests", len(reqs))
	}
	for i, req := range reqs {
		want := harness.Execute(req)
		if want.Err != nil {
			t.Fatalf("direct execute %s/%s: %v", req.Config.Name, req.Workload.Name(), want.Err)
		}
		got := sv.Results[i]
		if got.Config != req.Config.Name || got.Program != req.Workload.Name() {
			t.Fatalf("result %d is %s/%s, want %s/%s (grid order not preserved)",
				i, got.Config, got.Program, req.Config.Name, req.Workload.Name())
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s/%s: service stats differ from direct execution\n got %+v\nwant %+v",
				got.Config, got.Program, got.Stats, want.Stats)
		}
	}

	wantSeries(t, hs.URL, map[string]string{
		"ringsimd_sweeps_submitted_total": "1",
		"ringsimd_runs_submitted_total":   "4",
		"ringsimd_runs_started_total":     "4",
		"ringsimd_runs_completed_total":   "4",
		"ringsimd_cache_hits_total":       "0",
	})

	// Resubmit the identical sweep: all four runs must be cache hits and
	// nothing new may be simulated.
	var sv2 sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv2)
	if sv2.ID == sv.ID {
		t.Fatal("resubmission reused the sweep id")
	}
	sv2 = pollSweep(t, hs.URL, sv2.ID)
	if sv2.Status != statusDone || sv2.Done != 4 {
		t.Fatalf("resubmitted sweep: %+v", sv2)
	}
	if sv2.CacheHits != 4 {
		t.Errorf("resubmitted sweep cache_hits = %d, want 4", sv2.CacheHits)
	}
	// Every member is counted again as submitted and answered from the
	// cache; nothing new simulates.
	wantSeries(t, hs.URL, map[string]string{
		"ringsimd_sweeps_submitted_total": "2",
		"ringsimd_runs_submitted_total":   "8",
		"ringsimd_runs_started_total":     "4",
		"ringsimd_cache_hits_total":       "4",
	})
	if !reflect.DeepEqual(sv2.Results, sv.Results) {
		t.Error("cached sweep results differ from the original")
	}
}

// TestRunEndpointAndDiskCache submits one run against a tiered store,
// then proves a fresh server over the same disk directory answers from
// cache without simulating.
func TestRunEndpointAndDiskCache(t *testing.T) {
	dir := t.TempDir()
	disk, err := results.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, results.NewTiered(results.NewMemoryLRU(8), disk))

	body := map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
		"program": "gcc",
		"insts":   testInsts,
		"warmup":  testWarmup,
	}
	var rv runView
	postJSON(t, hs.URL+"/v1/runs", body, http.StatusAccepted, &rv)
	if rv.ID == "" {
		t.Fatalf("submit: %+v", rv)
	}
	// The run id must be the content hash of the canonical request.
	wantKey, err := results.NewRequest(harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		Workload: workload.Single("gcc"), Insts: testInsts, Warmup: testWarmup,
	}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if rv.ID != wantKey {
		t.Errorf("run id %s is not the content hash %s", rv.ID, wantKey)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for rv.Status != statusDone && rv.Status != statusFailed {
		if time.Now().After(deadline) {
			t.Fatalf("run stuck: %+v", rv)
		}
		time.Sleep(20 * time.Millisecond)
		getJSON(t, hs.URL+"/v1/runs/"+rv.ID, &rv)
	}
	// Measured committed lands just under insts: the warm-up loop may
	// overshoot its target by up to the commit width before the reset.
	if rv.Status != statusDone || rv.Result == nil || rv.Result.Stats.Committed == 0 || rv.Result.Stats.Cycles == 0 {
		t.Fatalf("run did not complete: %+v", rv)
	}

	// A brand-new server process sharing only the disk directory must
	// serve the same request from cache.
	disk2, err := results.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, disk2)
	var rv2 runView
	postJSON(t, hs2.URL+"/v1/runs", body, http.StatusAccepted, &rv2)
	for rv2.Status != statusDone && rv2.Status != statusFailed {
		if time.Now().After(deadline) {
			t.Fatalf("cached run stuck: %+v", rv2)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, hs2.URL+"/v1/runs/"+rv2.ID, &rv2)
	}
	if !rv2.Cached {
		t.Error("disk-cached run not marked cached")
	}
	wantSeries(t, hs2.URL, map[string]string{
		"ringsimd_runs_submitted_total": "1",
		"ringsimd_runs_started_total":   "0",
		"ringsimd_cache_hits_total":     "1",
	})
	if !reflect.DeepEqual(rv2.Result, rv.Result) {
		t.Error("disk-cached result differs from original")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(8))
	cases := []struct {
		name string
		body map[string]any
	}{
		{"no config", map[string]any{"program": "gcc", "insts": 100}},
		{"bad arch", map[string]any{
			"paper":   map[string]any{"arch": "torus", "clusters": 4, "iw": 2, "buses": 1},
			"program": "gcc", "insts": 100}},
		{"unknown program", map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
			"program": "doom", "insts": 100}},
		{"zero insts", map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
			"program": "gcc"}},
		{"negative hop", map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1, "hop": -2},
			"program": "gcc", "insts": 100}},
		{"bad steer", map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1, "steer": "random"},
			"program": "gcc", "insts": 100}},
	}
	for _, c := range cases {
		postJSON(t, hs.URL+"/v1/runs", c.body, http.StatusBadRequest, nil)
	}
	// Invalid sweeps: empty grid, duplicate config names.
	postJSON(t, hs.URL+"/v1/sweeps", map[string]any{
		"configs": []map[string]any{}, "programs": []string{"gcc"}, "insts": 100,
	}, http.StatusBadRequest, nil)
	postJSON(t, hs.URL+"/v1/sweeps", map[string]any{
		"configs": []map[string]any{
			{"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1}},
			{"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1}},
		},
		"programs": []string{"gcc"}, "insts": 100,
	}, http.StatusBadRequest, nil)
}

func TestUnknownIDs(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(8))
	for _, path := range []string{"/v1/runs/deadbeef", "/v1/sweeps/sweep-999999"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(8))
	var hz map[string]any
	getJSON(t, hs.URL+"/healthz", &hz)
	if hz["status"] != "ok" {
		t.Errorf("healthz: %+v", hz)
	}
	if hz["workers"] != 2.0 {
		t.Errorf("healthz workers = %v, want 2", hz["workers"])
	}
	wantSeries(t, hs.URL, map[string]string{"ringsimd_workers": "2"})
}

// TestQueueFull floods the bounded queue with distinct runs and expects
// refusals. It drives submit directly rather than going through HTTP: on
// a single-CPU host each POST round trip takes long enough for the
// worker to drain the queue, which would make the overflow unobservable.
func TestQueueFull(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueDepth: 1, Store: results.NewMemoryLRU(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Distinct insts values make each submission a distinct content key.
	// The loop never blocks, so at most a handful of pops can interleave:
	// with depth 1, most of the burst must be refused.
	refused := 0
	for i := 0; i < 30; i++ {
		req := harness.Request{
			Config:   core.MustPaperConfig(core.ArchRing, 4, 2, 1),
			Workload: workload.Single("gcc"),
			Insts:    10_000 + uint64(i),
			Warmup:   testWarmup,
		}
		_, _, err := srv.submit(req)
		switch {
		case err == nil:
		case errors.Is(err, errQueueFull):
			refused++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if refused == 0 {
		t.Error("bounded queue never refused a submission")
	}
	if got := srv.metrics.QueueRejected.Load(); got != uint64(refused) {
		t.Errorf("queue_rejected = %d, want %d", got, refused)
	}
	// The HTTP layer maps a full queue to 503 Service Unavailable.
	if got := submitStatus(errQueueFull); got != http.StatusServiceUnavailable {
		t.Errorf("submitStatus(errQueueFull) = %d, want 503", got)
	}
}

// TestSweepLargerThanQueue proves a sweep is not bounded by the queue
// depth: members trickle through the bounded buffer via the feeder.
func TestSweepLargerThanQueue(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueDepth: 1, Store: results.NewMemoryLRU(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if sv.Total != 4 {
		t.Fatalf("submit: %+v", sv)
	}
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Done != 4 {
		t.Fatalf("4-run sweep through a depth-1 queue: %+v", sv)
	}
}

// TestSweepValidationIsAtomic submits a sweep with one invalid member
// and expects no trace: valid members must not be registered, and a
// follow-up sweep naming them must still complete.
func TestSweepValidationIsAtomic(t *testing.T) {
	srv, hs := newTestServer(t, results.NewMemoryLRU(8))
	bad := map[string]any{
		"configs": []map[string]any{
			{"paper": map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1}},
		},
		"programs": []string{"gcc", "doom"},
		"insts":    testInsts,
		"warmup":   testWarmup,
	}
	postJSON(t, hs.URL+"/v1/sweeps", bad, http.StatusBadRequest, nil)
	srv.mu.Lock()
	stray := len(srv.runs)
	srv.mu.Unlock()
	if stray != 0 {
		t.Fatalf("failed sweep left %d runs registered", stray)
	}
	// The valid member must be runnable afterwards, not wedged.
	good := bad
	good["programs"] = []string{"gcc"}
	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", good, http.StatusAccepted, &sv)
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Done != 1 {
		t.Fatalf("member of a previously rejected sweep did not run: %+v", sv)
	}
}

// TestRegistryEviction bounds the run and sweep registries: evicted run
// ids are answered straight from the content-addressed store (done,
// cached) and their resubmission is a pure store hit, while the oldest
// terminal sweep is dropped beyond MaxSubmissions.
func TestRegistryEviction(t *testing.T) {
	srv, err := New(Options{
		Workers: 2, QueueDepth: 64,
		Store:   results.NewMemoryLRU(64),
		maxRuns: 2, maxSubmissions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	// Four distinct runs, completed one at a time.
	programs := []string{"gcc", "swim", "mcf", "art"}
	ids := make([]string, len(programs))
	for i, p := range programs {
		body := map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
			"program": p, "insts": testInsts, "warmup": testWarmup,
		}
		var rv runView
		postJSON(t, hs.URL+"/v1/runs", body, http.StatusAccepted, &rv)
		ids[i] = rv.ID
		deadline := time.Now().Add(2 * time.Minute)
		for rv.Status != statusDone && rv.Status != statusFailed {
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck: %+v", p, rv)
			}
			time.Sleep(20 * time.Millisecond)
			getJSON(t, hs.URL+"/v1/runs/"+rv.ID, &rv)
		}
	}
	srv.mu.Lock()
	live := len(srv.runs)
	srv.mu.Unlock()
	if live > 2 {
		t.Errorf("run registry holds %d entries, want ≤ maxRuns=2", live)
	}
	// The first run was evicted from the registry, but its GET falls
	// back to the store: done, cached, result intact.
	var ev runView
	getJSON(t, hs.URL+"/v1/runs/"+ids[0], &ev)
	if ev.Status != statusDone || !ev.Cached || ev.Result == nil {
		t.Errorf("evicted run GET = %+v, want done+cached with result", ev)
	}
	// Resubmitting it is likewise answered without simulating.
	started := srv.metrics.RunsStarted.Load()
	body := map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
		"program": "gcc", "insts": testInsts, "warmup": testWarmup,
	}
	var rv runView
	postJSON(t, hs.URL+"/v1/runs", body, http.StatusAccepted, &rv)
	deadline := time.Now().Add(2 * time.Minute)
	for rv.Status != statusDone && rv.Status != statusFailed {
		if time.Now().After(deadline) {
			t.Fatalf("resubmitted run stuck: %+v", rv)
		}
		time.Sleep(20 * time.Millisecond)
		getJSON(t, hs.URL+"/v1/runs/"+rv.ID, &rv)
	}
	if !rv.Cached {
		t.Error("evicted-then-resubmitted run not served from store")
	}
	if got := srv.metrics.RunsStarted.Load(); got != started {
		t.Errorf("resubmission of an evicted run simulated again (%d -> %d)", started, got)
	}

	// Two sweeps against MaxSubmissions=1: the first, finished, is evicted.
	var s1, s2 sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &s1)
	pollSweep(t, hs.URL, s1.ID)
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &s2)
	resp, err := http.Get(hs.URL + "/v1/sweeps/" + s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted sweep GET = %d, want 404", resp.StatusCode)
	}
	if sv := pollSweep(t, hs.URL, s2.ID); sv.Status != statusDone {
		t.Errorf("surviving sweep: %+v", sv)
	}
}

// TestUnfinishedSweepOutlivesTheBound: eviction spares unfinished
// submissions. On a daemon without a journal, where an evicted sweep could
// only answer 404, a sweep whose members are still queued is still served
// after a second sweep passes MaxSubmissions.
func TestUnfinishedSweepOutlivesTheBound(t *testing.T) {
	srv, err := New(Options{Workers: -1, Fleet: &fleet.CoordinatorOptions{}, QueueDepth: 64, maxSubmissions: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, srv)
	var s1, s2, got sweepView
	postJSON(t, hs+"/v1/sweeps", sweepBody(), http.StatusAccepted, &s1)
	postJSON(t, hs+"/v1/sweeps", sweepBody(), http.StatusAccepted, &s2)
	getJSON(t, hs+"/v1/sweeps/"+s1.ID, &got)
	if got.ID != s1.ID || got.Status != statusRunning || got.Total != 4 {
		t.Errorf("unfinished sweep after a second submission: %+v", got)
	}
}

// TestDedupInFlight submits the same run twice back-to-back and expects
// one id, one simulation, and a dedup count.
func TestDedupInFlight(t *testing.T) {
	srv, hs := newTestServer(t, results.NewMemoryLRU(8))
	body := map[string]any{
		"paper":   map[string]any{"arch": "conv", "clusters": 4, "iw": 2, "buses": 1},
		"program": "swim",
		"insts":   testInsts,
		"warmup":  testWarmup,
	}
	var a, b runView
	postJSON(t, hs.URL+"/v1/runs", body, http.StatusAccepted, &a)
	postJSON(t, hs.URL+"/v1/runs", body, http.StatusAccepted, &b)
	if a.ID != b.ID {
		t.Fatalf("identical submissions got different ids: %s vs %s", a.ID, b.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for b.Status != statusDone && b.Status != statusFailed {
		if time.Now().After(deadline) {
			t.Fatalf("run stuck: %+v", b)
		}
		time.Sleep(20 * time.Millisecond)
		getJSON(t, hs.URL+"/v1/runs/"+b.ID, &b)
	}
	if n := srv.metrics.RunsStarted.Load(); n != 1 {
		t.Errorf("in-flight duplicate caused %d simulations, want 1", n)
	}
	if srv.metrics.Deduped.Load()+srv.metrics.CacheHits.Load() == 0 {
		t.Error("duplicate submission neither deduped nor cache-hit")
	}
}
