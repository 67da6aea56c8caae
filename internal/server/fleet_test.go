package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// newFleetServer wires a dispatch-only coordinator (no local workers, so
// every simulation must flow through the fleet protocol) onto httptest.
func newFleetServer(t *testing.T, store results.Store, fo fleet.CoordinatorOptions) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{Workers: -1, QueueDepth: 64, Store: store, Fleet: &fo})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

// startWorker runs an in-process fleet worker against the coordinator
// until the test ends or stop is called.
func startWorker(t *testing.T, url, name string, store results.Store) (*fleet.Worker, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator:  url,
		Name:         name,
		Capacity:     2,
		Store:        store,
		PollInterval: 10 * time.Millisecond,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })
	return w, cancel
}

// fig6SweepBody names the full Figure-6 grid (ten Table 3 configurations
// × the whole workload suite) at test scale.
func fig6SweepBody() map[string]any {
	return gridBody(len(harness.PaperConfigs()), len(workload.Names()))
}

// TestFleetSweepBitIdentical is the tentpole acceptance scenario: the
// Figure-6 grid submitted to a coordinator with two remote workers and
// no local pool completes with records — keys, stats, everything —
// byte-identical to direct single-process execution.
func TestFleetSweepBitIdentical(t *testing.T) {
	srv, hs := newFleetServer(t, results.NewMemoryLRU(256), fleet.CoordinatorOptions{})
	wA, _ := startWorker(t, hs.URL, "a", nil)
	wB, _ := startWorker(t, hs.URL, "b", nil)

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", fig6SweepBody(), http.StatusAccepted, &sv)
	total := 10 * len(workload.Names())
	if sv.Total != total {
		t.Fatalf("submitted %d runs, want %d", sv.Total, total)
	}
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Done != total || sv.Failed != 0 {
		t.Fatalf("fleet sweep did not complete cleanly: status=%s done=%d failed=%d", sv.Status, sv.Done, sv.Failed)
	}

	// Every record must match local execution bit for bit, key included.
	reqs, err := harness.Expand(harness.PaperConfigs(), workload.Names(), testInsts, testWarmup)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := results.FromRun(req, harness.Execute(req))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sv.Results[i], want) {
			t.Fatalf("%s/%s: fleet record differs from local execution\n got %+v\nwant %+v",
				req.Config.Name, req.Workload.Name(), sv.Results[i], want)
		}
	}

	// All simulations really happened remotely (no local pool exists),
	// split across both workers.
	if n := srv.metrics.RunsStarted.Load(); n != 0 {
		t.Errorf("dispatch-only coordinator simulated %d runs locally", n)
	}
	if got := srv.fleet.Stats().RemoteCompleted; got != uint64(total) {
		t.Errorf("remote completions = %d, want %d", got, total)
	}
	sa, sb := wA.Stats(), wB.Stats()
	if sa.Executed == 0 || sb.Executed == 0 {
		t.Errorf("work not sharded: worker a executed %d, worker b %d", sa.Executed, sb.Executed)
	}
	if sa.Executed+sb.Executed != uint64(total) {
		t.Errorf("workers executed %d runs, want %d", sa.Executed+sb.Executed, total)
	}

	// Resubmission is answered from the coordinator's store: no new
	// remote traffic at all.
	var sv2 sweepView
	postJSON(t, hs.URL+"/v1/sweeps", fig6SweepBody(), http.StatusAccepted, &sv2)
	sv2 = pollSweep(t, hs.URL, sv2.ID)
	if sv2.Status != statusDone || sv2.CacheHits != total {
		t.Fatalf("resubmitted fleet sweep: status=%s cache_hits=%d, want done/%d", sv2.Status, sv2.CacheHits, total)
	}
	if got := srv.fleet.Stats().RemoteCompleted; got != uint64(total) {
		t.Errorf("resubmission leaked %d runs to the fleet", got-uint64(total))
	}
	if !reflect.DeepEqual(sv2.Results, sv.Results) {
		t.Error("cached fleet sweep results differ from the original")
	}
}

// TestFleetWorkerLossRequeues kills a worker mid-sweep: its expired
// leases must requeue and the surviving worker must finish the sweep.
func TestFleetWorkerLossRequeues(t *testing.T) {
	srv, hs := newFleetServer(t, results.NewMemoryLRU(64), fleet.CoordinatorOptions{LeaseTTL: 200 * time.Millisecond})

	// The doomed worker speaks the protocol by hand: it registers,
	// leases a batch, and vanishes without completing or heartbeating.
	var reg fleet.RegisterResponse
	postJSON(t, hs.URL+"/v1/fleet/workers", fleet.RegisterRequest{Name: "doomed", Capacity: 4}, http.StatusOK, &reg)

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)

	// Wait for the dispatcher to surface the members, then grab them all.
	var leased fleet.LeaseResponse
	deadline := time.Now().Add(5 * time.Second)
	for len(leased.Jobs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		postJSON(t, hs.URL+"/v1/fleet/lease", fleet.LeaseRequest{WorkerID: reg.WorkerID, Max: 4}, http.StatusOK, &leased)
		time.Sleep(10 * time.Millisecond)
	}

	// A healthy worker joins; the sweep must still complete once the
	// doomed worker's leases expire.
	startWorker(t, hs.URL, "survivor", nil)
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Done != 4 {
		t.Fatalf("sweep did not survive worker loss: %+v", sv)
	}
	fs := srv.fleet.Stats()
	if fs.Requeues == 0 {
		t.Error("no leases were requeued after worker loss")
	}
	if fs.RemoteCompleted != 4 {
		t.Errorf("remote completions = %d, want 4", fs.RemoteCompleted)
	}

	// The doomed worker's ghost completion arrives after the requeue has
	// already settled elsewhere: every record must be rejected.
	batch := make([]results.Result, 0, len(leased.Jobs))
	for _, j := range leased.Jobs {
		run := harness.Execute(j.Request.Harness())
		res, err := results.FromRun(j.Request.Harness(), run)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, res)
	}
	// A keyless record can never be matched to a lease: rejected too.
	batch = append(batch, results.Result{Config: "keyless"})
	var cr fleet.CompleteResponse
	postJSON(t, hs.URL+"/v1/fleet/complete", fleet.CompleteRequest{
		WorkerID:    reg.WorkerID,
		ResultBatch: results.ResultBatch{Results: batch},
	}, http.StatusOK, &cr)
	if cr.Accepted != 0 || cr.Rejected != len(batch) {
		t.Errorf("ghost completion: accepted=%d rejected=%d, want 0/%d", cr.Accepted, cr.Rejected, len(batch))
	}
}

// TestFleetWorkerLocalCacheShortCircuits proves a worker fronting its own
// store completes warm keys without simulating.
func TestFleetWorkerLocalCacheShortCircuits(t *testing.T) {
	// First fleet: one worker with a private store, cold.
	workerStore := results.NewMemoryLRU(64)
	_, hs := newFleetServer(t, results.NewMemoryLRU(64), fleet.CoordinatorOptions{})
	w1, stop1 := startWorker(t, hs.URL, "cold", workerStore)

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if sv := pollSweep(t, hs.URL, sv.ID); sv.Status != statusDone {
		t.Fatalf("cold sweep: %+v", sv)
	}
	if st := w1.Stats(); st.Executed == 0 || st.CacheHits != 0 {
		t.Fatalf("cold worker stats: %+v", st)
	}
	stop1()

	// Second fleet on a fresh coordinator (empty coordinator store), same
	// worker store: the worker answers every job from its own cache.
	_, hs2 := newFleetServer(t, results.NewMemoryLRU(64), fleet.CoordinatorOptions{})
	w2, _ := startWorker(t, hs2.URL, "warm", workerStore)
	postJSON(t, hs2.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	if sv := pollSweep(t, hs2.URL, sv.ID); sv.Status != statusDone {
		t.Fatalf("warm sweep: %+v", sv)
	}
	if st := w2.Stats(); st.Executed != 0 || st.CacheHits != 4 {
		t.Errorf("warm worker stats: %+v (want 0 executed, 4 cache hits)", st)
	}
}

// TestFleetOfZeroFallsBackLocally proves the fleet-of-zero guarantee: a
// coordinator with local workers and no registered remotes behaves
// exactly like a plain server.
func TestFleetOfZeroFallsBackLocally(t *testing.T) {
	srv, err := New(Options{Workers: 2, QueueDepth: 64, Store: results.NewMemoryLRU(64), Fleet: &fleet.CoordinatorOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Done != 4 {
		t.Fatalf("fleet-of-zero sweep: %+v", sv)
	}
	if n, fs := srv.metrics.RunsStarted.Load(), srv.fleet.Stats(); n != 4 || fs.RemoteCompleted != 0 || fs.Workers != 0 {
		t.Errorf("fleet-of-zero: %d runs started, fleet %+v", n, fs)
	}

	// The status endpoint reports an empty fleet rather than erroring.
	var fs fleetStatusView
	getJSON(t, hs.URL+"/v1/fleet", &fs)
	if fs.Stats.Workers != 0 || len(fs.Workers) != 0 {
		t.Errorf("fleet status: %+v", fs)
	}
}

// TestFleetSweepOfSharedWorkload: a sweep whose members all share one
// workload is executed in full by the remote worker of a dispatch-only
// coordinator.
func TestFleetSweepOfSharedWorkload(t *testing.T) {
	_, hs := newFleetServer(t, results.NewMemoryLRU(256), fleet.CoordinatorOptions{})
	w, _ := startWorker(t, hs.URL, "remote", nil)

	configs := make([]map[string]any, 0, 10)
	for _, c := range harness.PaperConfigs() {
		configs = append(configs, map[string]any{"config": c})
	}
	body := map[string]any{
		"configs":  configs,
		"programs": []string{"synth(ilp=4,ws=16K)@880001"},
		"insts":    testInsts,
		"warmup":   testWarmup,
	}
	var sv sweepView
	postJSON(t, hs.URL+"/v1/sweeps", body, http.StatusAccepted, &sv)
	sv = pollSweep(t, hs.URL, sv.ID)
	if sv.Status != statusDone || sv.Failed != 0 {
		t.Fatalf("sweep: %+v", sv)
	}

	if st := w.Stats(); st.Executed != uint64(len(configs)) {
		t.Errorf("remote worker executed %d runs, want all %d", st.Executed, len(configs))
	}
}

// failingPutStore is a store on a failing disk: reads work, every write
// is refused and nothing is recorded.
type failingPutStore struct {
	results.Store
}

func (failingPutStore) Put(string, results.Result) error {
	return errors.New("disk full")
}

// TestStorePutFailureIsCountedNotFatal covers every store write-through
// site — the local worker (runOne), remote completions (completeRemote)
// and the fleet worker's own cache — with a store whose Put fails: the
// sweep still finishes done, each lost write is counted and logged once
// with its key, and the records are absent from the store.
func TestStorePutFailureIsCountedNotFatal(t *testing.T) {
	var logged syncBuffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	check := func(name string, srv *Server, hs *httptest.Server, inner results.Store) {
		t.Helper()
		var sv sweepView
		postJSON(t, hs.URL+"/v1/sweeps", sweepBody(), http.StatusAccepted, &sv)
		sv = pollSweep(t, hs.URL, sv.ID)
		if sv.Status != statusDone || sv.Done != 4 || sv.Failed != 0 {
			t.Fatalf("%s: sweep over a failing store: %+v", name, sv)
		}
		if got := srv.metrics.StorePutErrors.Load(); got != 4 {
			t.Errorf("%s: StorePutErrors = %d, want 4", name, got)
		}
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "ringsimd_store_put_errors_total 4\n") {
			t.Errorf("%s: /metrics does not report 4 store put errors", name)
		}
		for _, res := range sv.Results {
			if _, hit, _ := inner.Get(res.Key); hit {
				t.Errorf("%s: %s reached the store through a failing Put", name, res.Key)
			}
			if n := strings.Count(logged.String(), "ringsimd: store put "+res.Key); n != 1 {
				t.Errorf("%s: %d log lines for %s, want 1", name, n, res.Key)
			}
		}
		logged.Reset()
	}

	inner := results.NewMemoryLRU(64)
	srv, hs := newTestServer(t, failingPutStore{inner})
	check("local", srv, hs, inner)

	inner = results.NewMemoryLRU(64)
	srv, hs = newFleetServer(t, failingPutStore{inner}, fleet.CoordinatorOptions{})
	w, _ := startWorker(t, hs.URL, "failing-disk", failingPutStore{results.NewMemoryLRU(64)})
	check("fleet", srv, hs, inner)
	if st := w.Stats(); st.Executed != 4 || st.StorePutErrors != 4 || st.Completed != 4 {
		t.Errorf("worker over a failing store: %+v (want 4 executed, 4 put errors, 4 completed)", st)
	}
}

// syncBuffer is a bytes.Buffer safe to read while loggers write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.Reset()
}
