// Package server turns the in-process simulation harness into a
// simulation-as-a-service: a bounded pending pool (a fleet.Coordinator,
// fleet or no fleet), filled one workload after the other, drained by
// fleet workers — the daemon's own, in process, and remote ones when
// asked for — fronted by a content-addressed result store and a small
// HTTP API.
//
//	POST /v1/runs     submit one simulation        -> {id}
//	GET  /v1/runs/{id}                             -> status + result
//	POST /v1/sweeps   submit a (config × program) grid -> {id}
//	GET  /v1/sweeps/{id}                           -> status + results
//	POST /v1/explore  start a design-space exploration -> {id}
//	GET  /v1/explore/{id}                          -> progress + Pareto frontier
//	GET  /healthz     liveness + queue depth
//	GET  /metrics     Prometheus counters
//
// The daemon's own workers speak the fleet protocol (POST
// /v1/fleet/workers|lease|complete|heartbeat — see internal/fleet and
// fleet.go) to handlers reached in process. With Options.Fleet set the
// same handlers, plus GET /v1/fleet, serve remote workers too: every
// queued run, sweep member, and exploration evaluation is then offered to
// local and remote workers alike, whoever is free first.
//
// A run's id is the SHA-256 content hash of its canonical request
// encoding (see internal/results), so identical submissions coalesce: an
// in-flight duplicate attaches to the running job, and a finished one is
// answered from the store without simulating. Sweeps expand through
// harness.Expand, so the grid a sweep names is exactly the grid the CLI
// tools would run. Sweep members trickle into the bounded pool via a
// feeder goroutine, one workload after the other, so a sweep may be
// arbitrarily larger than the queue depth; single-run submissions against
// a full pool fail fast with 503.
//
// Memory is bounded: the run registry evicts oldest-terminal runs beyond
// 8192, and the submission registry (sweeps and explorations) the
// oldest terminal submissions beyond 1024 (the content-addressed store
// still answers evicted runs, and a journal's stored final replies
// evicted submissions, so eviction only costs a registry miss, never a
// re-simulation while the store holds the result). An unfinished
// submission is kept until it finishes, which it does whether or not
// anyone polls it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/results"
	"repro/internal/version"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers is how many local workers, in-process fleet workers of
	// capacity 1, the daemon runs. Default: GOMAXPROCS. With Fleet set, -1
	// runs no local workers at all — a dispatch-only coordinator whose
	// simulations all happen remotely.
	Workers int
	// Fleet, when non-nil, enables coordinator mode: the daemon exposes
	// the /v1/fleet worker protocol and shards all queued work across
	// registered remote workers and its local ones. A fleet with zero
	// registered workers is a non-fleet server: the same pool, the same
	// local workers, only the routes differ.
	Fleet *fleet.CoordinatorOptions
	// FleetSecret, when non-empty, requires every /v1/fleet/* call to
	// carry the matching fleet.SecretHeader value; calls without it get
	// 401. The local workers carry it too. The worker protocol otherwise
	// trusts the network.
	FleetSecret string
	// QueueDepth bounds the pending pool; direct run submissions beyond
	// it are refused with 503 (sweep members block-feed instead).
	// Default: 256.
	QueueDepth int
	// Store caches results by content hash. Default: a 4096-entry
	// in-memory LRU.
	Store results.Store
	// Journal, when non-nil, makes the control plane crash-safe: the
	// pending-pool mutations of direct runs are journaled, sweeps and
	// explorations persist durable manifests under their client-visible
	// ids, and New replays the journal — settling jobs whose results are
	// in the Store, re-queueing the rest, and re-registering open
	// submissions under their original ids (see durable.go). The Server
	// does not close the journal; its owner does, after Close.
	Journal *journal.Journal

	// maxRuns and maxSubmissions override the registries' bounds (the
	// constants of the same names) in tests.
	maxRuns, maxSubmissions int
}

// maxRuns bounds the run registry: beyond it, the oldest terminal runs
// not referenced by an unfinished sweep are evicted (their results
// remain in the Store).
const maxRuns = 8192

// maxSubmissions bounds the registry of sweeps and explorations: beyond
// it, the oldest evictable ones are dropped. An unfinished one never is,
// so the registry may exceed the bound while everything in it is live.
const maxSubmissions = 1024

// runStatus is the lifecycle of one submitted run.
type runStatus string

const (
	statusQueued  runStatus = "queued"
	statusRunning runStatus = "running"
	statusDone    runStatus = "done"
	statusFailed  runStatus = "failed"
	// statusLost marks work this coordinator no longer knows how to
	// finish: the id is not registered and the store holds no result
	// (pre-journal restart, registry eviction beyond the store's reach).
	// Terminal, so clients stop polling and resubmit instead.
	statusLost runStatus = "lost"
)

// terminal reports whether the status is final.
func (s runStatus) terminal() bool {
	return s == statusDone || s == statusFailed || s == statusLost
}

// runState tracks one unique run (content key) through the queue.
type runState struct {
	key    string
	req    harness.Request
	status runStatus
	// cached marks runs answered from the store rather than simulated by
	// this server instance.
	cached bool
	result results.Result
	// record is result encoded once, at finishLocked; every view of the
	// run splices these bytes.
	record []byte
	// held marks a run that holds its traces in the trace cache: set when
	// the run is queued (newRunLocked), cleared by whichever comes first of
	// finishLocked and abandonRuns.
	held bool
	// refs counts unfinished sweeps and waiting explorations referencing
	// this run; a referenced run is never evicted from the registry.
	refs int
	// waiters are closed when the run turns terminal; explorations block
	// on them instead of polling.
	waiters []chan struct{}
	// queuedAt and startedAt feed the queue-age and worker-latency
	// histograms.
	queuedAt  time.Time
	startedAt time.Time
}

// Server is the simulation service. Create with New, serve via Handler,
// stop with Close.
type Server struct {
	opts Options
	mux  *http.ServeMux
	quit chan struct{} // closed to stop sweep feeders and exploration drivers

	mu           sync.Mutex
	closed       bool
	runs         map[string]*runState
	subs         map[string]*submission // sweeps and explorations, by id
	terminalKeys []string               // eviction order for terminal runs
	subOrder     []string               // registration order of subs

	// killed marks a Terminate in progress: journal hooks go quiet, like
	// a real crash.
	killed atomic.Bool

	metrics     Metrics
	stopWorkers context.CancelFunc // ends the local workers
	// wg counts every goroutine the server starts: local workers, feeders,
	// sweep watchers and exploration drivers. Each Add happens in New or
	// under s.mu with closed unset, so none can follow shutdown's Wait.
	wg sync.WaitGroup

	// fleet owns the pending pool every run waits in, and the remote-worker
	// registry when Options.Fleet asks for one.
	fleet *fleet.Coordinator
}

// New starts the worker pool and returns a ready server.
func New(opts Options) (*Server, error) {
	switch {
	case opts.Workers < 0 && opts.Fleet != nil:
		opts.Workers = 0 // dispatch-only coordinator
	case opts.Workers <= 0:
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Store == nil {
		opts.Store = results.NewMemoryLRU(4096)
	}
	if opts.maxRuns <= 0 {
		opts.maxRuns = maxRuns
	}
	if opts.maxSubmissions <= 0 {
		opts.maxSubmissions = maxSubmissions
	}
	s := &Server{
		opts: opts,
		quit: make(chan struct{}),
		runs: make(map[string]*runState),
		subs: make(map[string]*submission),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.getSubmission(results.ManifestKindSweep, "sweep", s.viewSweepLocked))
	s.mux.HandleFunc("POST /v1/explore", s.handleSubmitExplore)
	s.mux.HandleFunc("GET /v1/explore/{id}", s.getSubmission(results.ManifestKindExplore, "exploration", liveExploreLocked))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	var fo fleet.CoordinatorOptions
	if opts.Fleet != nil {
		fo = *opts.Fleet
		s.mountFleet(s.mux, false)
	}
	// Poisoned jobs must fail their registered runs, or the submitting
	// clients would poll a parked key forever.
	fo.OnPoison = s.poisonRun
	s.fleet = fleet.NewCoordinator(fo, opts.QueueDepth)
	local := http.NewServeMux()
	s.mountFleet(local, true)
	ctx, stop := context.WithCancel(context.Background())
	s.stopWorkers = stop
	for i := range opts.Workers {
		// No client timeout: an idle worker's lease waits for work.
		w := fleet.NewWorker(fleet.WorkerOptions{Coordinator: "http://ringsimd", Secret: opts.FleetSecret,
			Name: fmt.Sprintf("local-%d", i+1), Capacity: 1, Client: &http.Client{Transport: localTransport{local}}})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(ctx) // returns once ctx ends or the drained pool has stopped
		}()
	}
	if opts.Journal != nil {
		s.recoverFromJournal()
	}
	return s, nil
}

// Workers returns how many local workers the server runs, as New
// resolved Options.Workers (0 for a dispatch-only coordinator).
func (s *Server) Workers() int { return s.opts.Workers }

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting submissions, stops sweep feeders, lets the local
// workers drain the pool, and waits for in-flight simulations to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.shutdown()
}

// shutdown ends a server whose closed flag is up: closed gates new
// submissions, sweeps and exploration registrations (all check it under
// s.mu), the stopped pool refuses what feeders and exploration drivers
// still offer and lets the local workers drain what it holds, after which
// it tells them it has stopped and they return. Jobs out under a remote
// lease are abandoned — the registry they would complete into is dying
// with the process.
func (s *Server) shutdown() {
	close(s.quit)
	s.fleet.Stop()
	s.wg.Wait()
	s.stopWorkers()
	s.abandonRuns()
}

// abandonRuns lets go of the traces held for runs that will never finish
// here — out under a remote lease at Close, registered by an exploration
// that shutdown aborted, or anything queued at Terminate — so a stopped
// server leaves nothing behind in the process-wide trace cache.
func (s *Server) abandonRuns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.runs {
		s.releaseLocked(st)
	}
}

// newRunLocked registers a queued run and holds its traces: every member
// of a sweep holds from submission, so a stream shared across the grid is
// materialized once however the members interleave, and freed when the
// last one settles. Callers must hold s.mu.
func (s *Server) newRunLocked(key string, req harness.Request) *runState {
	st := &runState{key: key, req: req, status: statusQueued, queuedAt: time.Now(), held: true}
	harness.DefaultTraceCache.Hold(req.Workload)
	s.runs[key] = st
	return st
}

// releaseLocked lets go of a run's hold on its traces, once. Callers must
// hold s.mu.
func (s *Server) releaseLocked(st *runState) {
	if st.held {
		st.held = false
		harness.DefaultTraceCache.Release(st.req.Workload)
	}
}

// settleExecuted lands one executed record and journals its completion.
// Only successful runs are cached; failures are deterministic too, but
// keeping them out of the store means a fixed simulator never has to
// invalidate poisoned entries. Losing the write only costs a future
// re-simulation: the result is still served from the registry.
func (s *Server) settleExecuted(res results.Result) {
	if res.Failed() {
		s.metrics.RunsFailed.Add(1)
	} else {
		s.metrics.RunsCompleted.Add(1)
		s.storePut(res.Key, res)
	}
	s.finish(res.Key, res, false)
	s.journalRun(journal.Record{Op: journal.OpComplete, Key: res.Key})
}

// finish settles the registered run of this key with its result —
// fromCache tells a store answer from an execution. A run already
// terminal, or gone from the registry, is left as it is.
func (s *Server) finish(key string, res results.Result, fromCache bool) {
	s.mu.Lock()
	if st, ok := s.runs[key]; ok && !st.status.terminal() {
		s.finishLocked(st, res, fromCache)
	}
	s.mu.Unlock()
}

// storePut writes one finished record through to the store. A failure is
// counted and logged with its key, never fatal: the run is still served
// from the registry.
func (s *Server) storePut(key string, res results.Result) {
	if err := s.opts.Store.Put(key, res); err != nil {
		s.metrics.StorePutErrors.Add(1)
		log.Printf("ringsimd: store put %s: %v", key, err)
	}
}

// finishLocked marks a run terminal, lets go of its traces and schedules
// it for eviction. Every settle path — simulated here, answered from the
// store, completed remotely, poisoned, replayed — ends here. Callers must
// hold s.mu.
func (s *Server) finishLocked(st *runState, res results.Result, fromCache bool) {
	s.releaseLocked(st)
	if res.Failed() {
		st.status = statusFailed
	} else {
		st.status = statusDone
	}
	st.cached = fromCache
	st.result = res
	st.record = encodeRecord(res)
	for _, ch := range st.waiters {
		close(ch)
	}
	st.waiters = nil
	s.terminalKeys = append(s.terminalKeys, st.key)
	s.evictRunsLocked()
}

// evictRunsLocked drops oldest terminal runs beyond maxRuns, skipping
// any referenced by an unfinished sweep. Callers must hold s.mu.
func (s *Server) evictRunsLocked() {
	scans := len(s.terminalKeys)
	for i := 0; i < scans && len(s.runs) > s.opts.maxRuns && len(s.terminalKeys) > 0; i++ {
		key := s.terminalKeys[0]
		s.terminalKeys = s.terminalKeys[1:]
		st, ok := s.runs[key]
		if !ok || !st.status.terminal() {
			// Already evicted, or the key was re-registered as a fresh run
			// after an earlier eviction; this generation's entry will be
			// re-appended when it turns terminal.
			continue
		}
		if st.refs > 0 {
			s.terminalKeys = append(s.terminalKeys, key)
			continue
		}
		delete(s.runs, key)
	}
}

// subscribeLocked returns one channel per unfinished run, closed when the
// run turns terminal. Callers must hold s.mu, so no finish can be missed.
func subscribeLocked(sts []*runState) []chan struct{} {
	var waits []chan struct{}
	for _, st := range sts {
		if !st.status.terminal() {
			done := make(chan struct{})
			st.waiters = append(st.waiters, done)
			waits = append(waits, done)
		}
	}
	return waits
}

// await blocks until every channel is closed or the server quits, and
// reports whether every one closed.
func (s *Server) await(waits []chan struct{}) bool {
	for _, done := range waits {
		select {
		case <-done:
		case <-s.quit:
			return false
		}
	}
	return true
}

// errQueueFull is returned when the bounded queue cannot take a new job.
var errQueueFull = errors.New("job queue full")

// errClosed is returned after Close.
var errClosed = errors.New("server closed")

// registerLocked records one pre-validated request in the run table,
// coalescing on content key. fresh means the caller must arrange for the
// key to reach the job queue; hit means the request was already finished
// and this submission is a cache hit. Callers must hold s.mu.
func (s *Server) registerLocked(req harness.Request, key string) (st *runState, fresh, hit bool) {
	s.metrics.RunsSubmitted.Add(1)
	if st, ok := s.runs[key]; ok {
		if st.status.terminal() {
			// Finished earlier (this process or the store): a resubmission
			// is a pure cache hit, no queue traffic.
			s.metrics.CacheHits.Add(1)
			return st, false, true
		}
		s.metrics.Deduped.Add(1)
		return st, false, false
	}
	return s.newRunLocked(key, req), true, false
}

// registerBatchLocked registers a batch of prepared requests — a sweep's
// members or an exploration tier's cells — pins every member's run (refs)
// so registry eviction cannot drop it while the batch is live, and hands
// the fresh ones to a feeder, which fills the pool one workload after the
// other. hits marks the members that were already finished when
// registered. jobs carries each request's key and wire form.
// Callers must hold s.mu and have checked s.closed.
func (s *Server) registerBatchLocked(reqs []harness.Request, jobs []results.Job) (sts []*runState, hits []bool) {
	sts = make([]*runState, len(reqs))
	hits = make([]bool, len(reqs))
	var pending []results.Job // fresh members, for the feeder
	for i, req := range reqs {
		st, fresh, hit := s.registerLocked(req, jobs[i].Key)
		st.refs++
		if fresh {
			pending = append(pending, jobs[i])
		}
		sts[i], hits[i] = st, hit
	}
	s.feedLocked(pending)
	return sts, hits
}

// prepare validates a request and computes its content key (both outside
// any lock — hashing is pure CPU).
func prepare(req harness.Request) (string, error) {
	if err := validate(req); err != nil {
		return "", err
	}
	return results.NewRequest(req).Key()
}

// submit registers one request and enqueues it non-blocking — the
// direct-run path, where a full pool is a fast 503. Registration and
// enqueue share one critical section, so a refused submission leaves no
// trace. A result only the store remembers is looked up first, outside
// the lock, and settles the run as it registers (see feed).
func (s *Server) submit(req harness.Request) (*runState, bool, error) {
	key, err := prepare(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	_, known := s.runs[key]
	s.mu.Unlock()
	var stored results.Result
	inStore := false
	if !known {
		res, hit, err := s.opts.Store.Get(key)
		stored, inStore = res, hit && err == nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errClosed
	}
	st, fresh, hit := s.registerLocked(req, key)
	if fresh && inStore {
		s.metrics.CacheHits.Add(1)
		s.finishLocked(st, stored, true)
		fresh = false
	}
	var wire results.Request
	if fresh {
		wire = results.NewRequest(req)
		err := s.fleet.TryEnqueue(results.Job{Key: key, Request: wire})
		if errors.Is(err, fleet.ErrPoolFull) {
			s.releaseLocked(st)
			delete(s.runs, key)
			s.metrics.QueueRejected.Add(1)
			s.mu.Unlock()
			return nil, false, errQueueFull
		}
	}
	s.mu.Unlock()
	if fresh {
		s.journalRun(journal.Record{Op: journal.OpEnqueue, Job: &results.Job{Key: key, Request: wire}})
	}
	return st, hit, nil
}

// feedLocked starts a feeder for freshly registered runs. Callers hold
// s.mu, so Close (which flips closed under the same lock before waiting on
// feeders) cannot miss it.
func (s *Server) feedLocked(jobs []results.Job) {
	if len(jobs) > 0 {
		s.wg.Add(1)
		go s.feed(jobs)
	}
}

// feed enqueues registered runs one workload after the other, waiting on
// a full pool, so arbitrarily large grids flow through the bounded buffer
// with the runs of one trace adjacent. It journals no enqueue: a direct
// run's was written at submit, and a sweep's or an exploration's members
// are owed through its manifest. A run the store
// already answers (cached by a previous process, or by a prior generation
// of its key) settles here before it is offered to anyone, like a hit in
// submit; its complete retires the enqueue of a replayed direct run and
// writes nothing for any other. Runs on its own goroutine per batch;
// stops when the server closes.
func (s *Server) feed(jobs []results.Job) {
	defer s.wg.Done()
	for _, j := range fleet.WorkloadMajor(jobs) {
		select {
		case <-s.quit:
			return
		default:
		}
		if res, hit, err := s.opts.Store.Get(j.Key); err == nil && hit {
			s.metrics.CacheHits.Add(1)
			s.finish(j.Key, res, true)
			s.journalRun(journal.Record{Op: journal.OpComplete, Key: j.Key})
			continue
		}
		// A refusal means the pool has stopped, or still owns the key from
		// an earlier generation, whose completion settles this run too.
		_ = s.fleet.Enqueue(j)
	}
}

// validate rejects malformed requests before they consume queue space.
func validate(req harness.Request) error {
	if err := req.Config.Validate(); err != nil {
		return err
	}
	if err := req.Sampling.Validate(); err != nil {
		return err
	}
	if req.Config.Name == "" {
		return errors.New("config.name must be set")
	}
	if err := req.Workload.Validate(); err != nil {
		return err
	}
	if req.Insts == 0 {
		// Streams may carry their own budgets; only a stream left to
		// inherit the request default needs it to be positive.
		for _, s := range req.Workload.Streams {
			if s.Insts == 0 {
				return errors.New("insts must be positive")
			}
		}
	}
	return nil
}

// --- HTTP wire types ---

// runView is the GET /v1/runs/{id} response body. The daemon fills
// record rather than Result and renders it with appendRunView.
type runView struct {
	ID     string          `json:"id"`
	Status runStatus       `json:"status"`
	Cached bool            `json:"cached"`
	Result *results.Result `json:"result,omitempty"`
	// Error explains terminal non-success states the Result cannot
	// (today: lost runs, which have no result at all).
	Error string `json:"error,omitempty"`

	// record is the encoded Result, spliced where Result goes.
	record []byte
}

// viewRun copies out a run state for rendering; only a terminal run has
// a record. Callers must hold s.mu.
func viewRun(st *runState) runView {
	return runView{ID: st.key, Status: st.status, Cached: st.cached, record: st.record}
}

// sweepRequest is the POST /v1/sweeps body: the same grid parameters
// harness.Expand takes. Programs entries are workload spec strings
// ("gcc", "gcc+swim", ...), so sweeps mix multi-programmed workloads the
// same way the CLI does.
type sweepRequest struct {
	Configs  []results.ConfigSpec `json:"configs"`
	Programs []string             `json:"programs"`
	Insts    uint64               `json:"insts"`
	Warmup   uint64               `json:"warmup"`
	// Fidelity applies one execution fidelity to every member (see
	// runSubmission.Fidelity); empty means exact.
	Fidelity string `json:"fidelity,omitempty"`
}

// resolveConfigs resolves a sweep's configuration list, rejecting
// duplicate names (the grid is keyed by configuration name downstream).
func resolveConfigs(list []results.ConfigSpec) ([]core.Config, error) {
	out := make([]core.Config, 0, len(list))
	seen := make(map[string]bool, len(list))
	for i, cj := range list {
		cfg, err := cj.Resolve()
		if err != nil {
			return nil, fmt.Errorf("configs[%d]: %w", i, err)
		}
		if seen[cfg.Name] {
			return nil, fmt.Errorf("configs[%d]: duplicate configuration %q", i, cfg.Name)
		}
		seen[cfg.Name] = true
		out = append(out, cfg)
	}
	return out, nil
}

// sweepView is the GET /v1/sweeps/{id} response body. The daemon fills
// Runs with records and sets listResults rather than filling Results, and
// renders it with appendSweepView.
type sweepView struct {
	ID        string           `json:"id"`
	Status    runStatus        `json:"status"`
	Total     int              `json:"total"`
	Done      int              `json:"done"`
	Failed    int              `json:"failed"`
	CacheHits int              `json:"cache_hits"`
	Runs      []runView        `json:"runs"`
	Results   []results.Result `json:"results,omitempty"`

	// listResults lists every member's record under "results", in grid
	// order.
	listResults bool
}

// runSubmission is the POST /v1/runs body: one configuration (full or
// paper shorthand) plus the harness.Request scalars. The workload is
// either "program" — a workload spec string ("gcc", "gcc+swim",
// "gcc@7+gcc@8", see workload.ParseSpec) — or the explicit "streams"
// array; setting both is an error.
type runSubmission struct {
	results.ConfigSpec
	Program string           `json:"program"`
	Streams []results.Stream `json:"streams"`
	Insts   uint64           `json:"insts"`
	Warmup  uint64           `json:"warmup"`
	// Fidelity selects the execution mode: "exact", "sampled", or
	// "sampled(interval,window,warm)"; empty means exact, and a malformed
	// value is a 400 at submit time. Sampled results carry extrapolated
	// statistics plus standard errors and key distinctly from exact runs
	// of the same grid cell.
	Fidelity string `json:"fidelity,omitempty"`
}

// workloadSpec resolves the submission's workload.
func (sub runSubmission) workloadSpec() (workload.Spec, error) {
	switch {
	case len(sub.Streams) > 0 && sub.Program != "":
		return workload.Spec{}, errors.New(`set "program" or "streams", not both`)
	case len(sub.Streams) > 0:
		return results.Request{Streams: sub.Streams}.Spec(), nil
	case sub.Program != "":
		return workload.ParseSpec(sub.Program)
	default:
		return workload.Spec{}, errors.New(`missing "program" or "streams"`)
	}
}

// handleSubmitRun accepts one simulation request.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var sub runSubmission
	if !decodeBody(w, r, &sub) {
		return
	}
	cfg, err := sub.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := sub.workloadSpec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sp, err := harness.ParseFidelity(sub.Fidelity)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req := harness.Request{Config: cfg, Workload: spec, Insts: sub.Insts, Warmup: sub.Warmup, Sampling: sp}
	st, hit, err := s.submit(req)
	if err != nil {
		httpError(w, submitStatus(err), err)
		return
	}
	s.mu.Lock()
	v := viewRun(st)
	s.mu.Unlock()
	// The response describes this submission: answered-without-simulating
	// counts as cached even if the original run was simulated here.
	v.Cached = v.Cached || hit
	writeBody(w, http.StatusAccepted, appendRunView(nil, v))
}

// handleGetRun reports one run's status and, when finished, its result.
// Ids the registry forgot fall back to the store (served done, cached)
// or the terminal lost state; only ids that are not content keys at all
// stay 404.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.runs[id]
	var v runView
	if ok {
		v = viewRun(st)
	}
	s.mu.Unlock()
	if !ok {
		if s.runFallback(w, id) {
			return
		}
		httpError(w, http.StatusNotFound, errors.New("unknown run id"))
		return
	}
	writeBody(w, http.StatusOK, appendRunView(nil, v))
}

// handleSubmitSweep expands a grid and enqueues every member run. All
// members are validated before any is registered, so a bad sweep is
// all-or-nothing: it can never leave stray runs behind.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var sr sweepRequest
	if !decodeBody(w, r, &sr) {
		return
	}
	if len(sr.Configs) == 0 || len(sr.Programs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("sweep needs at least one config and one program"))
		return
	}
	configs, err := resolveConfigs(sr.Configs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sp, err := harness.ParseFidelity(sr.Fidelity)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	reqs, err := harness.ExpandSampled(configs, sr.Programs, sr.Insts, sr.Warmup, sp)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	keys := make([]string, len(reqs))
	jobs := make([]results.Job, len(reqs))
	for i, req := range reqs {
		if keys[i], err = prepare(req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("%s/%s: %w", req.Config.Name, req.Workload.Name(), err))
			return
		}
		jobs[i] = results.Job{Key: keys[i], Request: results.NewRequest(req)}
	}
	// The sweep's durable id is content-derived from its member list
	// plus a per-submission nonce: stable across coordinator restarts
	// (re-attachable), distinct across resubmissions of the same grid.
	manifest, err := results.NewSweepManifest(jobs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	body, err := s.open(&manifest, "", func(sw *submission) {
		_, sw.hits = s.registerBatchLocked(reqs, jobs)
		sw.keys = keys
	}, s.viewSweepLocked, s.watchSweep)
	writeOpened(w, body, err, &s.metrics.SweepsSubmitted)
}

// watchSweep settles a sweep when its last member does, so a sweep nobody
// polls still turns terminal, releases its runs and retires its manifest.
// A GET that settles it first leaves the watcher nothing to do.
func (s *Server) watchSweep(sw *submission) {
	s.mu.Lock()
	var sts []*runState
	if sw.retired == nil {
		for _, key := range sw.keys {
			sts = append(sts, s.runs[key])
		}
	}
	waits := subscribeLocked(sts)
	s.mu.Unlock()
	if !s.await(waits) {
		return // the next process recovers the open manifest
	}
	s.mu.Lock()
	settled := sw.retired == nil && s.viewSweepLocked(sw) == nil
	s.mu.Unlock()
	if settled {
		s.retire(sw)
	}
}

// viewSweepLocked is a sweep's liveView: it copies out the sweep's
// progress, every member's run view in grid order. The first view after
// every member turns terminal instead settles the sweep with its final
// view, which lists every member's record under "results", and releases
// the member references, making the runs evictable. Callers must hold
// s.mu.
func (s *Server) viewSweepLocked(sw *submission) func() []byte {
	v := sweepView{ID: sw.id, Total: len(sw.keys), Runs: make([]runView, 0, len(sw.keys))}
	for i, key := range sw.keys {
		st := s.runs[key] // refs pin every member while the sweep is live
		rv := viewRun(st)
		rv.Cached = rv.Cached || i < len(sw.hits) && sw.hits[i]
		v.Runs = append(v.Runs, rv)
		switch st.status {
		case statusDone:
			v.Done++
		case statusFailed:
			v.Failed++
		}
		if rv.Cached {
			v.CacheHits++
		}
	}
	switch {
	case v.Done+v.Failed < v.Total:
		v.Status = statusRunning
		return func() []byte { return appendSweepView(nil, v) }
	case v.Failed > 0:
		v.Status = statusFailed
	default:
		v.Status = statusDone
	}
	v.listResults = true
	for _, key := range sw.keys {
		s.runs[key].refs--
	}
	sw.hits = nil
	settleLocked(sw, appendSweepView(nil, v))
	s.evictRunsLocked()
	return nil
}

// handleHealthz reports liveness, queue depth, and the build revision.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"queue_len": s.fleet.Stats().Pending,
		"workers":   s.opts.Workers,
		"version":   version.Revision(),
	})
}

// submitStatus maps a submit error to an HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// maxBodyBytes bounds every request body the API decodes. The largest
// legitimate bodies — a sweep naming hundreds of full configurations, a
// fleet completion of a 64-record lease — stay well under a megabyte.
const maxBodyBytes = 8 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes of it, and answers a failure itself: 413 for a body over
// the bound, 400 for one that does not decode. It reports whether v is
// usable.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
	} else {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	return false
}

// writeJSON renders v as the response body: compact JSON, one line.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, _ := json.Marshal(v) // nil when refused: the status goes alone
	writeBody(w, status, b)
}

// httpError renders an error body.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
