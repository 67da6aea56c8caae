package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// localRun is a single-program request; n sets its content key apart.
func localRun(insts uint64, n int) harness.Request {
	return harness.Request{
		Config: harness.PaperConfigs()[0], Workload: workload.Single("gcc"),
		Insts: insts + uint64(n), Warmup: testWarmup,
	}
}

// waitFor polls cond every millisecond, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleDaemonStartsRunAtOnce: an idle local worker waits inside its
// lease for work, so a run submitted to an idle daemon starts at once
// instead of after the worker's 500 ms poll. Three idle submissions all
// starting within 100 ms would happen to a polling worker with a
// probability of 1/125.
func TestIdleDaemonStartsRunAtOnce(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueDepth: 8, Store: results.NewMemoryLRU(16)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := range 3 {
		time.Sleep(150 * time.Millisecond) // idle: a polling worker would be asleep
		began := time.Now()
		if _, _, err := srv.submit(localRun(testInsts, i)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the run to start", func() bool { return srv.metrics.RunsStarted.Load() > uint64(i) })
		if d := time.Since(began); d > 100*time.Millisecond {
			t.Errorf("submission %d started after %v on an idle daemon, want well under the 500 ms poll", i, d)
		}
		waitFor(t, "the run to finish", func() bool { return srv.metrics.RunsCompleted.Load() > uint64(i) })
	}
}

// TestTerminateMidRunLeavesKeyToReplay: Terminate stops a local worker in
// the middle of a simulation. The simulation finishes, but its completion
// never lands: the record reaches neither the registry nor the store, and
// the next process replays the key from the journal and simulates it.
func TestTerminateMidRunLeavesKeyToReplay(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1, _ := newDurableServer(t, dir, 1)
	hs1.Close()
	st, _, err := srv1.submit(localRun(100*testInsts, 0))
	if err != nil {
		t.Fatal(err)
	}
	key := st.key
	waitFor(t, "the run to start", func() bool { return srv1.metrics.RunsStarted.Load() == 1 })
	srv1.Terminate()
	srv1.mu.Lock()
	status := srv1.runs[key].status
	srv1.mu.Unlock()
	if status != statusRunning {
		t.Fatalf("run %s after Terminate, want running: the killed worker's completion landed, or the run ended before the kill", status)
	}
	if _, hit, _ := srv1.opts.Store.Get(key); hit {
		t.Fatal("the terminated worker's record reached the store")
	}

	srv2, hs2, j2 := newDurableServer(t, dir, 1)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	if n := len(j2.ReplayState().Jobs); n != 1 {
		t.Errorf("journal replay re-queued %d jobs, want the terminated run", n)
	}
	if rv := pollRun(t, hs2.URL, key); rv.Status != statusDone {
		t.Fatalf("replayed run: %+v", rv)
	}
	if started, hits := srv2.metrics.RunsStarted.Load(), srv2.metrics.CacheHits.Load(); started != 1 || hits != 0 {
		t.Errorf("replay: %d runs started, %d cache hits; want the key simulated once", started, hits)
	}
}

// TestFleetSecretDaemonRunsLocally: the local workers carry -fleet-secret,
// so a daemon started with one still runs its own simulations, with and
// without -fleet.
func TestFleetSecretDaemonRunsLocally(t *testing.T) {
	for _, fo := range []*fleet.CoordinatorOptions{nil, {}} {
		srv, err := New(Options{Workers: 1, QueueDepth: 8, Store: results.NewMemoryLRU(16), Fleet: fo, FleetSecret: "s3kr1t"})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		var rv runView
		postJSON(t, hs.URL+"/v1/runs", map[string]any{
			"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
			"program": "gcc", "insts": testInsts, "warmup": testWarmup,
		}, http.StatusAccepted, &rv)
		if rv = pollRun(t, hs.URL, rv.ID); rv.Status != statusDone {
			t.Errorf("fleet %v: run under a fleet secret: %+v", fo != nil, rv)
		}
		if started, remote := srv.metrics.RunsStarted.Load(), srv.fleet.Stats().RemoteCompleted; started != 1 || remote != 0 {
			t.Errorf("fleet %v: %d runs started, %d remote; want one local run", fo != nil, started, remote)
		}
		hs.Close()
		srv.Close()
	}
}

// TestLocalLeaseJSONCost measures what the in-process fleet protocol costs
// a local worker per run: one lease of one job and one completion of its
// record, JSON both ways through localTransport, the worker's batch
// Verify and the settle included, against one simulation at the repo
// benchmark's service_sweep budget (40,000 + 10,000 instructions).
func TestLocalLeaseJSONCost(t *testing.T) {
	const runs = 200
	srv, err := New(Options{Workers: -1, Fleet: &fleet.CoordinatorOptions{}, QueueDepth: runs, Store: results.NewMemoryLRU(2 * runs)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	local := http.NewServeMux()
	srv.mountFleet(local, true)
	client := &http.Client{Transport: localTransport{local}}
	post := func(path string, in, out any) {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post("http://ringsimd"+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var reg fleet.RegisterResponse
	post("/v1/fleet/workers", fleet.RegisterRequest{Name: "local-1", Capacity: 1}, &reg)

	sim := harness.Request{Config: harness.PaperConfigs()[0], Workload: workload.Single("gcc"), Insts: 40_000, Warmup: 10_000}
	harness.Execute(sim) // materialize the trace outside the timing
	began := time.Now()
	rec, err := results.FromRun(sim, harness.Execute(sim))
	if err != nil {
		t.Fatal(err)
	}
	simulate := time.Since(began)
	for i := range runs {
		if _, _, err := srv.submit(localRun(testInsts, i)); err != nil {
			t.Fatal(err)
		}
	}

	began = time.Now()
	for range runs {
		var lr fleet.LeaseResponse
		post("/v1/fleet/lease", fleet.LeaseRequest{WorkerID: reg.WorkerID, Max: 2}, &lr)
		if err := lr.JobBatch.Verify(); err != nil || len(lr.Jobs) != 1 {
			t.Fatalf("lease: %d jobs, %v; want one", len(lr.Jobs), err)
		}
		res := rec
		res.Key = lr.Jobs[0].Key
		var cr fleet.CompleteResponse
		post("/v1/fleet/complete", fleet.CompleteRequest{WorkerID: reg.WorkerID, ResultBatch: results.ResultBatch{Results: []results.Result{res}}}, &cr)
		if cr.Accepted != 1 {
			t.Fatalf("completion: %+v", cr)
		}
	}
	perRun := time.Since(began) / runs
	share := 100 * perRun.Seconds() / simulate.Seconds()
	t.Logf("in-process lease + complete: %v per run, %.2f%% of one %v simulation", perRun, share, simulate)
	if share > 5 {
		t.Errorf("the in-process protocol costs %.1f%% of a simulation per run, want under 5%%", share)
	}
}
