package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/results"
)

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the coordinator daemon's base URL
	// (e.g. http://coordinator:8080).
	Coordinator string
	// Secret is the fleet shared secret, sent on every call in the
	// SecretHeader; it must match the coordinator's -fleet-secret (empty
	// when the coordinator runs without one).
	Secret string
	// Name labels the worker in the coordinator's status endpoint.
	Name string
	// Capacity is how many simulations run concurrently.
	// Default: GOMAXPROCS.
	Capacity int
	// Store optionally fronts the worker with its own result cache
	// (typically a disk store shared across worker restarts): a leased
	// key already present is completed without simulating.
	Store results.Store
	// PollInterval is the idle wait after an empty lease. Default: 500ms.
	PollInterval time.Duration
	// Client overrides the HTTP client: tests shrink its timeout, and the
	// daemon's local workers reach their coordinator through a transport
	// that serves each call in process.
	Client *http.Client
	// Logf receives progress lines; nil discards them.
	Logf func(format string, v ...any)
}

// WorkerStats counts what a worker has done.
type WorkerStats struct {
	// Leased counts jobs pulled from the coordinator.
	Leased uint64
	// Executed counts jobs simulated locally.
	Executed uint64
	// CacheHits counts leased jobs answered from the worker's own store.
	CacheHits uint64
	// Completed counts records the coordinator accepted.
	Completed uint64
	// Rejected counts records the coordinator refused (late duplicates).
	Rejected uint64
	// StorePutErrors counts finished records the worker's own store
	// refused; the record still goes back to the coordinator.
	StorePutErrors uint64
}

// Worker pulls leased jobs from a coordinator, executes them through
// results.Run (sharing the process-wide trace cache and machine pool),
// and returns the results. Run drives the loop until its context is
// canceled or the coordinator stops; a worker that loses its registration
// (coordinator restart) transparently re-registers.
type Worker struct {
	opts WorkerOptions

	// mu guards the registration fields, which the lease loop rewrites on
	// re-registration while the heartbeat goroutine reads them.
	mu sync.Mutex
	id string
	hb time.Duration

	leased    atomic.Uint64
	executed  atomic.Uint64
	cacheHits atomic.Uint64
	completed atomic.Uint64
	rejected  atomic.Uint64
	putErrors atomic.Uint64
}

// NewWorker builds a worker; Run starts it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Capacity <= 0 {
		opts.Capacity = runtime.GOMAXPROCS(0)
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Worker{opts: opts}
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Leased:         w.leased.Load(),
		Executed:       w.executed.Load(),
		CacheHits:      w.cacheHits.Load(),
		Completed:      w.completed.Load(),
		Rejected:       w.rejected.Load(),
		StorePutErrors: w.putErrors.Load(),
	}
}

// Run registers and serves until ctx is canceled or the coordinator
// answers that it has stopped (ErrStopped: 410 over HTTP). Transient
// coordinator errors (connection refused while the coordinator is still
// starting or mid-restart, 5xx) back off and retry.
func (w *Worker) Run(ctx context.Context) error {
	if !w.registerWithRetry(ctx) {
		return nil
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		hbWG.Wait()
	}()

	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		jobs, err := w.lease(ctx)
		switch {
		case err == ErrStopped:
			return nil
		case err == ErrUnknownWorker:
			w.opts.Logf("fleet worker %s: registration lost, re-registering", w.workerID())
			if !w.registerWithRetry(ctx) {
				return nil
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return nil
			}
			w.opts.Logf("fleet worker %s: lease: %v", w.workerID(), err)
			if !sleepCtx(ctx, w.opts.PollInterval) {
				return nil
			}
			continue
		}
		if len(jobs) == 0 {
			if !sleepCtx(ctx, w.opts.PollInterval) {
				return nil
			}
			continue
		}
		w.leased.Add(uint64(len(jobs)))
		batch := w.executeBatch(ctx, jobs)
		if len(batch) == 0 {
			continue // canceled before the batch ran
		}
		if err := w.complete(ctx, batch); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// The lease will expire and the jobs requeue; losing a
			// completion only costs a re-run somewhere else.
			w.opts.Logf("fleet worker %s: complete: %v", w.workerID(), err)
		}
	}
}

// registerWithRetry registers until it succeeds, ctx ends or the
// coordinator stops, reporting false on the latter two. Any other error —
// connection refused while the coordinator is still starting, 5xx
// mid-restart — is retried.
func (w *Worker) registerWithRetry(ctx context.Context) bool {
	for {
		err := w.register(ctx)
		if err == nil {
			return true
		}
		if ctx.Err() != nil || errors.Is(err, ErrStopped) {
			return false
		}
		w.opts.Logf("fleet worker: %v (retrying)", err)
		if !sleepCtx(ctx, 4*w.opts.PollInterval) {
			return false
		}
	}
}

// workerID reads the current registration id.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// executeBatch runs the leased jobs through results.Run over the worker's
// own store — a leased key already cached completes without simulating —
// on at most Capacity workers, and returns their records in lease order
// (none when ctx ends first). results.Run runs the misses as one
// harness.GridRunsN call, which generates each trace once per lease
// however many jobs replay it and keeps nothing resident after the batch.
// A record whose recomputed key does not match its lease (schema drift
// between coordinator and worker binaries) goes back failed, so the
// coordinator never caches it under the leased key.
func (w *Worker) executeBatch(ctx context.Context, jobs []results.Job) []results.Result {
	if ctx.Err() != nil {
		return nil
	}
	reqs := make([]harness.Request, len(jobs))
	for i, jb := range jobs {
		reqs[i] = jb.Request.Harness()
	}
	batch := make([]results.Result, len(jobs))
	for i, o := range results.Run(w.opts.Store, reqs, w.opts.Capacity) {
		if o.Hit {
			w.cacheHits.Add(1)
		} else {
			w.executed.Add(1)
		}
		if o.PutErr != nil {
			w.putErrors.Add(1)
			w.opts.Logf("fleet worker %s: store put %s: %v", w.workerID(), o.Key, o.PutErr)
		}
		batch[i] = o.Result
		if jb := jobs[i]; o.Key != jb.Key {
			batch[i] = results.Result{Key: jb.Key, Config: jb.Request.Config.Name, Program: jb.Request.WorkloadLabel(),
				Err: fmt.Sprintf("content key mismatch: leased %s, computed %s (mixed schema versions?)", jb.Key, o.Key)}
		}
	}
	return batch
}

// register obtains (or re-obtains) the worker's identity.
func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	err := w.post(ctx, "/v1/fleet/workers",
		RegisterRequest{Name: w.opts.Name, Capacity: w.opts.Capacity}, &resp)
	if err != nil {
		return fmt.Errorf("fleet: register with %s: %w", w.opts.Coordinator, err)
	}
	hb := time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = 10 * time.Second
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.hb = hb
	w.mu.Unlock()
	w.opts.Logf("fleet worker %s: registered at %s (capacity %d, lease TTL %s, heartbeat %s)",
		resp.WorkerID, w.opts.Coordinator, w.opts.Capacity,
		time.Duration(resp.LeaseTTLMillis)*time.Millisecond, hb)
	return nil
}

// heartbeatLoop renews liveness (and thereby every held lease) until ctx
// ends. Unknown-worker responses are left for the lease loop to repair.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	hb := w.hb
	w.mu.Unlock()
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			id := w.workerID()
			if err := w.post(ctx, "/v1/fleet/heartbeat", HeartbeatRequest{WorkerID: id}, nil); err != nil && ctx.Err() == nil && err != ErrUnknownWorker {
				w.opts.Logf("fleet worker %s: heartbeat: %v", id, err)
			}
		}
	}
}

// lease pulls the next batch. The JobBatch is verified after decode: any
// job whose key does not hash from its request is rejected.
func (w *Worker) lease(ctx context.Context) ([]results.Job, error) {
	var lr LeaseResponse
	if err := w.post(ctx, "/v1/fleet/lease", LeaseRequest{WorkerID: w.workerID(), Max: 2 * w.opts.Capacity}, &lr); err != nil {
		return nil, err
	}
	if err := lr.JobBatch.Verify(); err != nil {
		return nil, err
	}
	return lr.Jobs, nil
}

// complete returns a batch of records.
func (w *Worker) complete(ctx context.Context, batch []results.Result) error {
	var cr CompleteResponse
	req := CompleteRequest{WorkerID: w.workerID(), ResultBatch: results.ResultBatch{Results: batch}}
	if err := w.post(ctx, "/v1/fleet/complete", req, &cr); err != nil {
		return err
	}
	w.completed.Add(uint64(cr.Accepted))
	w.rejected.Add(uint64(cr.Rejected))
	return nil
}

// post sends one JSON request to the coordinator and decodes the response
// into out.
func (w *Worker) post(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.opts.Secret != "" {
		req.Header.Set(SecretHeader, w.opts.Secret)
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: decode %s: %w", path, err)
	}
	return nil
}

// sleepCtx waits for d or the context, reporting false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// checkStatus maps an HTTP error response to a Go error; 404 means the
// coordinator does not know this worker id, 410 that it has stopped.
func checkStatus(resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		return nil
	case http.StatusNotFound:
		return ErrUnknownWorker
	case http.StatusGone:
		return ErrStopped
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("fleet: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("fleet: unexpected status %s", resp.Status)
}
