package server

// End-to-end coverage for the multi-programmed workload engine and the
// fleet hardening satellites: shared-secret auth on /v1/fleet, the
// poisoned-job parking lot failing its run, and a 2-worker fleet
// executing multi-stream workloads with per-stream IPC reported.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// pollRun polls GET /v1/runs/{id} until the run is terminal.
func pollRun(t *testing.T, base, id string) runView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v runView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Status.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return runView{}
}

// TestMultiProgramRunE2E submits a mixed workload to a plain server both
// as a spec string and as an explicit stream array, and checks the
// per-stream breakdown and determinism against direct execution.
func TestMultiProgramRunE2E(t *testing.T) {
	_, hs := newTestServer(t, results.NewMemoryLRU(64))

	body := map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 8, "iw": 2, "buses": 1},
		"program": "gcc+swim",
		"insts":   testInsts,
		"warmup":  testWarmup,
	}
	var rv runView
	postJSON(t, hs.URL+"/v1/runs", body, http.StatusAccepted, &rv)
	rv = pollRun(t, hs.URL, rv.ID)
	if rv.Status != statusDone {
		t.Fatalf("mix run failed: %+v", rv)
	}
	res := rv.Result
	if res.Program != "gcc+swim" || res.Class != "MIX" {
		t.Fatalf("mix identity wrong: program=%q class=%q", res.Program, res.Class)
	}
	if len(res.Stats.PerStream) != 2 {
		t.Fatalf("per-stream breakdown has %d entries, want 2", len(res.Stats.PerStream))
	}
	for i := range res.Stats.PerStream {
		if ipc := res.Stats.StreamIPC(i); ipc <= 0 {
			t.Errorf("stream %d IPC = %v", i, ipc)
		}
	}

	// Submitting the same workload as an explicit stream array names the
	// same simulation: same content key, answered from cache.
	streamsBody := map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 8, "iw": 2, "buses": 1},
		"streams": []map[string]any{{"program": "gcc"}, {"program": "swim"}},
		"insts":   testInsts,
		"warmup":  testWarmup,
	}
	var rv2 runView
	postJSON(t, hs.URL+"/v1/runs", streamsBody, http.StatusAccepted, &rv2)
	if rv2.ID != rv.ID {
		t.Fatalf("stream-array submission got key %s, spec string %s", rv2.ID, rv.ID)
	}
	if !rv2.Cached {
		t.Error("identical mix resubmission was not a cache hit")
	}

	// Both must match direct in-process execution bit for bit.
	req := harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Workload: workload.Mix("gcc", "swim"),
		Insts:    testInsts,
		Warmup:   testWarmup,
	}
	want := harness.Execute(req)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if !reflect.DeepEqual(res.Stats, want.Stats) {
		t.Fatalf("service mix stats differ from direct execution\n got %+v\nwant %+v", res.Stats, want.Stats)
	}

	// Setting both workload forms is rejected.
	bad := map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 8, "iw": 2, "buses": 1},
		"program": "gcc",
		"streams": []map[string]any{{"program": "swim"}},
		"insts":   testInsts,
	}
	postJSON(t, hs.URL+"/v1/runs", bad, http.StatusBadRequest, nil)
}

// TestMultiProgramFleetE2E is the acceptance scenario: a mixed sweep
// (single programs and a 2-stream mix) through a dispatch-only
// coordinator with two remote workers, with per-stream IPC in the
// returned records.
func TestMultiProgramFleetE2E(t *testing.T) {
	srv, hs := newFleetServer(t, results.NewMemoryLRU(64), fleet.CoordinatorOptions{})
	startWorker(t, hs.URL, "a", nil)
	startWorker(t, hs.URL, "b", nil)

	programs := []string{"gcc", "swim", "gcc+swim", "mcf@7+applu"}
	body := map[string]any{
		"configs": []map[string]any{
			{"paper": map[string]any{"arch": "ring", "clusters": 8, "iw": 2, "buses": 1}},
			{"paper": map[string]any{"arch": "conv", "clusters": 8, "iw": 2, "buses": 1}},
		},
		"programs": programs,
		"insts":    testInsts,
		"warmup":   testWarmup,
	}
	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", body, http.StatusAccepted, &sv)
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Failed != 0 {
		t.Fatalf("fleet mix sweep did not complete: %+v", sv)
	}
	reqs, err := harness.Expand([]core.Config{
		core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		core.MustPaperConfig(core.ArchConv, 8, 2, 1),
	}, programs, testInsts, testWarmup)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := results.FromRun(req, harness.Execute(req))
		if err != nil {
			t.Fatal(err)
		}
		got := sv.Results[i]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: fleet record differs from local execution\n got %+v\nwant %+v",
				req.Config.Name, req.Workload.Name(), got, want)
		}
		if strings.Contains(got.Program, "+") {
			if len(got.Stats.PerStream) != 2 {
				t.Fatalf("%s/%s: mix record has %d per-stream entries", got.Config, got.Program, len(got.Stats.PerStream))
			}
			for s := range got.Stats.PerStream {
				if got.Stats.StreamIPC(s) <= 0 {
					t.Errorf("%s/%s: stream %d IPC is zero", got.Config, got.Program, s)
				}
			}
		}
	}
	// Everything really ran remotely.
	if m := srv.Metrics(); m.Fleet.RemoteCompleted == 0 || m.RunsStarted != 0 {
		t.Fatalf("work did not flow through the fleet: %+v", m)
	}
}

// TestFleetAuth: with a secret configured, every /v1/fleet call without
// the header is 401, the wrong secret is 401, and a worker configured
// with the secret operates normally.
func TestFleetAuth(t *testing.T) {
	const secret = "s3kr1t"
	srv, err := New(Options{
		Workers: -1, QueueDepth: 16,
		Store:       results.NewMemoryLRU(16),
		Fleet:       &fleet.CoordinatorOptions{},
		FleetSecret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := newAuthedHTTPServer(t, srv)

	// Unauthenticated and wrongly-authenticated calls: 401, no state
	// change.
	for _, wrong := range []string{"", "wrong"} {
		req, _ := http.NewRequest(http.MethodPost, hs+"/v1/fleet/workers",
			strings.NewReader(`{"name":"x","capacity":1}`))
		if wrong != "" {
			req.Header.Set(fleet.SecretHeader, wrong)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("secret %q: status %d, want 401", wrong, resp.StatusCode)
		}
	}
	getReq, _ := http.NewRequest(http.MethodGet, hs+"/v1/fleet", nil)
	resp, err := http.DefaultClient.Do(getReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status endpoint: %d, want 401", resp.StatusCode)
	}
	if got := srv.fleet.Stats().Workers; got != 0 {
		t.Fatalf("unauthenticated register leaked a worker: %d", got)
	}

	// Non-fleet endpoints stay open.
	hresp, err := http.Get(hs + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind fleet auth: %d", hresp.StatusCode)
	}

	// A secret-bearing worker serves a run end to end.
	startAuthedWorker(t, hs, secret)
	var rv runView
	postJSON(t, hs+"/v1/runs", map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
		"program": "gcc",
		"insts":   testInsts,
		"warmup":  testWarmup,
	}, http.StatusAccepted, &rv)
	rv = pollRun(t, hs, rv.ID)
	if rv.Status != statusDone {
		t.Fatalf("authed worker did not complete the run: %+v", rv)
	}
}

// TestFleetPoisonedRunFails: a job whose workers lease it and never
// complete must, after the attempt cap, turn its run terminal-failed and
// surface in GET /v1/fleet and /metrics.
func TestFleetPoisonedRunFails(t *testing.T) {
	srv, hs := newFleetServer(t, results.NewMemoryLRU(16), fleet.CoordinatorOptions{LeaseTTL: 30 * time.Millisecond})

	var rv runView
	postJSON(t, hs.URL+"/v1/runs", map[string]any{
		"paper":   map[string]any{"arch": "ring", "clusters": 4, "iw": 2, "buses": 1},
		"program": "gcc",
		"insts":   testInsts,
	}, http.StatusAccepted, &rv)

	// Lease-and-drop until the job poisons: each lease burns an attempt.
	// Every lease comes from a freshly registered fake worker that never
	// heartbeats nor completes, so the job's lease (or the worker, after
	// twice the TTL) expires whatever the scheduling delays between calls.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never poisoned")
		}
		var rr fleet.RegisterResponse
		if err := json.Unmarshal(fleetPost(t, hs.URL, "/v1/fleet/workers", `{"name":"blackhole","capacity":4}`), &rr); err != nil {
			t.Fatal(err)
		}
		fleetPost(t, hs.URL, "/v1/fleet/lease", fmt.Sprintf(`{"worker_id":%q,"max":4}`, rr.WorkerID))
		if srv.fleet.Stats().PoisonedTotal > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	rv = pollRun(t, hs.URL, rv.ID)
	if rv.Status != statusFailed {
		t.Fatalf("poisoned run status %s, want failed", rv.Status)
	}
	if rv.Result == nil || !strings.Contains(rv.Result.Err, "poisoned") {
		t.Fatalf("poisoned run error not surfaced: %+v", rv.Result)
	}

	// Operator visibility: the parked job in GET /v1/fleet…
	resp, err := http.Get(hs.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fsv fleetStatusView
	if err := json.NewDecoder(resp.Body).Decode(&fsv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fsv.Poisoned) != 1 || fsv.Poisoned[0].Key != rv.ID {
		t.Fatalf("poisoned lot not visible: %+v", fsv.Poisoned)
	}
	// …and the counter in /metrics.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mb), "ringsimd_fleet_poisoned_total 1") {
		t.Fatal("ringsimd_fleet_poisoned_total not exported")
	}
}

// fleetPost posts a raw JSON body to a fleet endpoint and returns the
// response body (any 2xx accepted).
func fleetPost(t *testing.T, base, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
	}
	return b
}

// newAuthedHTTPServer serves srv over httptest with cleanup.
func newAuthedHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs.URL
}

// startAuthedWorker runs an in-process worker carrying the fleet secret.
func startAuthedWorker(t *testing.T, url, secret string) {
	t.Helper()
	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator:  url,
		Secret:       secret,
		Name:         "authed",
		Capacity:     2,
		PollInterval: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })
}
