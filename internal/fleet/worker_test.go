package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// fakeCoordinator speaks just enough of the fleet protocol to drive one
// worker: it hands out a fixed job batch on the first lease and collects
// the completions.
type fakeCoordinator struct {
	t    *testing.T
	jobs []results.Job

	mu        sync.Mutex
	leased    bool
	completed []results.Result
	done      chan struct{}
}

func (f *fakeCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/workers", func(w http.ResponseWriter, _ *http.Request) {
		writeOK(w, RegisterResponse{WorkerID: "w-test", LeaseTTLMillis: 60_000, HeartbeatMillis: 60_000})
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, _ *http.Request) {
		writeOK(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/fleet/lease", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		first := !f.leased
		f.leased = true
		f.mu.Unlock()
		resp := LeaseResponse{LeaseTTLMillis: 60_000}
		if first {
			resp.JobBatch = results.JobBatch{Jobs: f.jobs}
		}
		writeOK(w, resp)
	})
	mux.HandleFunc("POST /v1/fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		var cr CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&cr); err != nil {
			f.t.Errorf("decode complete: %v", err)
		}
		f.mu.Lock()
		f.completed = append(f.completed, cr.Results...)
		if len(f.completed) >= len(f.jobs) {
			select {
			case <-f.done:
			default:
				close(f.done)
			}
		}
		f.mu.Unlock()
		writeOK(w, CompleteResponse{Accepted: len(cr.Results)})
	})
	return mux
}

func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// leaseJobs builds one lease: the ten paper configurations over a
// single-stream workload, plus one two-stream mix under the first
// configuration that shares that stream.
func leaseJobs(t *testing.T, single, mix string) ([]results.Job, []harness.Request) {
	t.Helper()
	const insts, warmup = 2000, 400
	var jobs []results.Job
	var reqs []harness.Request
	add := func(cfg core.Config, spec string) {
		ws, err := workload.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		req := harness.Request{Config: cfg, Workload: ws, Insts: insts, Warmup: warmup}
		j, err := results.NewJob(results.NewRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		reqs = append(reqs, req)
	}
	configs := harness.PaperConfigs()
	for _, cfg := range configs {
		add(cfg, single)
	}
	add(configs[0], mix)
	return jobs, reqs
}

// runWorkerOnce drives a worker against the fake coordinator until every
// job completes, then stops it and returns its stats.
func runWorkerOnce(t *testing.T, fc *fakeCoordinator) WorkerStats {
	t.Helper()
	fc.done = make(chan struct{})
	hs := httptest.NewServer(fc.handler())
	defer hs.Close()
	w := NewWorker(WorkerOptions{
		Coordinator:  hs.URL,
		Name:         "test",
		Capacity:     2,
		PollInterval: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker: %v", err)
		}
	}()
	select {
	case <-fc.done:
	case <-time.After(2 * time.Minute):
		t.Error("worker never completed the batch")
	}
	cancel()
	wg.Wait()
	return w.Stats()
}

// verifyBatchResults checks the completed records against direct local
// execution, bit for bit.
func verifyBatchResults(t *testing.T, fc *fakeCoordinator, reqs []harness.Request) {
	t.Helper()
	fc.mu.Lock()
	got := make(map[string]results.Result, len(fc.completed))
	for _, res := range fc.completed {
		got[res.Key] = res
	}
	fc.mu.Unlock()
	for i, req := range reqs {
		want, err := results.FromRun(req, harness.Execute(req))
		if err != nil {
			t.Fatal(err)
		}
		res, ok := got[want.Key]
		if !ok {
			t.Fatalf("job %d (%s) never completed", i, want.Key)
		}
		if res.Err != "" {
			t.Fatalf("job %d failed: %s", i, res.Err)
		}
		if !reflect.DeepEqual(res.Stats, want.Stats) {
			t.Errorf("job %d: stats diverge from local execution", i)
		}
	}
}

// TestWorkerLeaseGeneratesEachStreamOnce: a worker generates the traces
// its lease replays, each distinct stream once however many jobs (and
// workloads) name it, frees them all when the batch is done, and its
// records are bit-identical to local execution.
func TestWorkerLeaseGeneratesEachStreamOnce(t *testing.T) {
	prev := harness.DefaultTraceCache
	harness.DefaultTraceCache = harness.NewTraceCache(64 << 20)
	t.Cleanup(func() { harness.DefaultTraceCache = prev })

	const single = "synth(ilp=4,ws=32K)@770001"
	jobs, reqs := leaseJobs(t, single, single+"+synth(ilp=2,ws=64K)@770002")
	fc := &fakeCoordinator{t: t, jobs: jobs}
	st := runWorkerOnce(t, fc)
	if st.Executed != uint64(len(jobs)) {
		t.Errorf("executed %d jobs, want %d", st.Executed, len(jobs))
	}

	const distinct = 2
	calls := 0
	for _, r := range reqs {
		calls += len(r.Workload.Streams)
	}
	tc := harness.DefaultTraceCache.Stats()
	if tc.Misses != distinct || tc.Hits != uint64(calls-distinct) {
		t.Errorf("trace cache misses %d, hits %d: want %d generations and %d replays",
			tc.Misses, tc.Hits, distinct, calls-distinct)
	}
	if tc.Entries != 0 || tc.Held != 0 || tc.Bytes != 0 || tc.Insts != 0 {
		t.Errorf("the finished lease left traces behind: %+v", tc)
	}
	verifyBatchResults(t, fc, reqs)
}
