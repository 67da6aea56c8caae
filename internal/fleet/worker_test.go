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
	"repro/internal/trace"
	"repro/internal/workload"
)

// fakeCoordinator speaks just enough of the fleet protocol to drive one
// worker: it hands out a fixed job batch (with trace references) on the
// first lease and collects the completions. serveTraces selects whether
// GET /v1/fleet/trace/{key} answers with the materialized trace or 404s,
// so tests cover both the fetch path and the regeneration fallback.
type fakeCoordinator struct {
	t           *testing.T
	jobs        []results.Job
	traces      []TraceRef
	serveTraces bool

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
			resp.Traces = f.traces
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
	mux.HandleFunc("GET /v1/fleet/trace/{key}", func(w http.ResponseWriter, r *http.Request) {
		if !f.serveTraces {
			http.Error(w, `{"error":"unknown trace key"}`, http.StatusNotFound)
			return
		}
		key := r.PathValue("key")
		for _, ref := range f.traces {
			if ref.Key() != key {
				continue
			}
			gen, err := workload.NewStream(ref.Program, ref.Seed)
			if err != nil {
				f.t.Errorf("trace stream: %v", err)
				return
			}
			insts, err := trace.Collect(trace.NewLimit(gen, ref.Insts), int(ref.Insts))
			if err != nil {
				f.t.Errorf("trace collect: %v", err)
				return
			}
			tw, err := trace.NewWriter(w)
			if err != nil {
				return
			}
			for i := range insts {
				if err := tw.Write(&insts[i]); err != nil {
					return
				}
			}
			_ = tw.Flush()
			return
		}
		http.Error(w, `{"error":"unknown trace key"}`, http.StatusNotFound)
	})
	return mux
}

func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// traceJobs builds a two-config batch over one shared synthetic workload
// (seed chosen per test so the process-wide trace cache starts cold) plus
// the trace references a real coordinator would attach to the lease.
func traceJobs(t *testing.T, spec string) ([]results.Job, []TraceRef, []harness.Request) {
	t.Helper()
	ws, err := workload.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	const insts, warmup = 2000, 400
	var jobs []results.Job
	var reqs []harness.Request
	for _, clusters := range []int{4, 8} {
		req := harness.Request{
			Config:   core.MustPaperConfig(core.ArchRing, clusters, 2, 1),
			Workload: ws,
			Insts:    insts,
			Warmup:   warmup,
		}
		j, err := results.NewJob(results.NewRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		reqs = append(reqs, req)
	}
	budgets := harness.StreamBudgets(ws, insts, warmup)
	var refs []TraceRef
	for i, st := range ws.Streams {
		refs = append(refs, TraceRef{Program: st.Program, Seed: st.Seed, Insts: budgets[i]})
	}
	return jobs, refs, reqs
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

// TestWorkerFetchesLeasedTraces is the coordinator-served trace path: a
// lease carrying trace references makes the worker fetch each trace once
// instead of generating it, and the simulated records stay bit-identical
// to local execution.
func TestWorkerFetchesLeasedTraces(t *testing.T) {
	jobs, refs, reqs := traceJobs(t, "synth(ilp=4,ws=32K)@770001")
	fc := &fakeCoordinator{t: t, jobs: jobs, traces: refs, serveTraces: true}
	before := harness.DefaultTraceCache.Stats()
	st := runWorkerOnce(t, fc)
	// The lease holds its streams across prefetch and execution, so the
	// installed traces are what the jobs replay — nothing is generated —
	// and they are gone when the batch is done.
	after := harness.DefaultTraceCache.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+uint64(len(jobs)*len(refs)) {
		t.Errorf("trace cache misses %d→%d, hits %d→%d: want no generation and %d replays of the fetched traces",
			before.Misses, after.Misses, before.Hits, after.Hits, len(jobs)*len(refs))
	}
	if after.Entries != before.Entries || after.Held != before.Held {
		t.Errorf("the finished lease left traces behind: %+v, was %+v", after, before)
	}
	if st.TraceFetches != uint64(len(refs)) || st.TraceRegens != 0 {
		t.Errorf("trace counters: fetches=%d regens=%d, want %d/0",
			st.TraceFetches, st.TraceRegens, len(refs))
	}
	if st.Executed != uint64(len(jobs)) {
		t.Errorf("executed %d jobs, want %d", st.Executed, len(jobs))
	}
	verifyBatchResults(t, fc, reqs)
}

// TestWorkerRegeneratesWhenTraceMissing is the fallback contract: when
// the coordinator cannot serve a referenced trace (404), the worker
// counts a regeneration and the jobs still complete with identical
// results via local generation.
func TestWorkerRegeneratesWhenTraceMissing(t *testing.T) {
	jobs, refs, reqs := traceJobs(t, "synth(ilp=4,ws=32K)@770002")
	fc := &fakeCoordinator{t: t, jobs: jobs, traces: refs, serveTraces: false}
	st := runWorkerOnce(t, fc)
	if st.TraceFetches != 0 || st.TraceRegens != uint64(len(refs)) {
		t.Errorf("trace counters: fetches=%d regens=%d, want 0/%d",
			st.TraceFetches, st.TraceRegens, len(refs))
	}
	verifyBatchResults(t, fc, reqs)
}

// TestTraceRefKeyStability pins the trace content-address derivation:
// coordinator and worker must agree on it without coordination, so a
// change here is a wire break.
func TestTraceRefKeyStability(t *testing.T) {
	a := TraceRef{Program: "gcc", Seed: 0, Insts: 1000}
	if a.Key() != (TraceRef{Program: "gcc", Insts: 1000}).Key() {
		t.Error("identical refs disagree on key")
	}
	for _, other := range []TraceRef{
		{Program: "swim", Seed: 0, Insts: 1000},
		{Program: "gcc", Seed: 1, Insts: 1000},
		{Program: "gcc", Seed: 0, Insts: 2000},
	} {
		if other.Key() == a.Key() {
			t.Errorf("ref %+v collides with %+v", other, a)
		}
	}
	if len(a.Key()) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(a.Key()))
	}
}
