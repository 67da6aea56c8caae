package server

// Design-space exploration over HTTP: POST /v1/explore starts an async
// search (internal/dse) whose candidate evaluations flow through the same
// bounded pending pool, workers and content-addressed result store as
// direct runs and sweeps. Each batch the engine scores — a round of the
// strategy, the twin's verification tier, the exact confirmation of a
// sampled frontier — registers as one unit and is fed to the pool one
// workload after the other, exactly like a sweep of the same cells (see
// queueEvaluator). An exploration re-visiting any dse candidate ever
// simulated by this service (or found in its disk store) costs zero new
// simulations, across strategies, explorations, and restarts. (The
// content hash covers the config including its name, and dse names its
// candidates canonically, so reuse spans everything dse proposes; a
// paper-named /v1/sweeps grid of the same machines is a distinct key
// space.) GET /v1/explore/{id} streams progress and the running Pareto
// frontier while the search is live, and the full report once it
// finishes.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/results"
)

// maxExplorePoints bounds the grid cardinality a single exploration may
// name. Each point is a full workload-suite evaluation, so even this cap
// is days of simulation on one machine; anything larger is a malformed
// request (or a denial of service), not a search. A tier of a grid this
// size registers all its cells at once, as a sweep of the same size does.
const maxExplorePoints = 4096

// exploreView is the GET /v1/explore/{id} response body: the engine's
// report, with its points only in the final reply.
type exploreView struct {
	ID     string    `json:"id"`
	Status runStatus `json:"status"`
	dse.Report
	CacheHitRate float64 `json:"cache_hit_rate"`
	Error        string  `json:"error,omitempty"`
}

// snapshotReport projects a (running or final) dse report into the wire
// view. Slices are copied so later engine rounds never mutate a rendered
// response.
func snapshotReport(v *exploreView, rep *dse.Report, includePoints bool) {
	v.Report, v.CacheHitRate = *rep, rep.CacheHitRate()
	v.Frontier = append([]dse.Point(nil), rep.Frontier...)
	v.Points = nil
	if includePoints {
		v.Points = append([]dse.Point(nil), rep.Points...)
	}
}

// handleSubmitExplore validates and launches one exploration.
func (s *Server) handleSubmitExplore(w http.ResponseWriter, r *http.Request) {
	var er dse.Request
	if !decodeBody(w, r, &er) {
		return
	}
	opts, err := exploreOptions(&er)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The durable id is content-derived from the normalized request plus
	// a per-submission nonce; explorations are deterministic given the
	// request, so the manifest needs nothing else to be replayable.
	raw, err := json.Marshal(er)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	manifest, err := results.NewExploreManifest(raw)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	body, err := s.openExplore(&manifest, "", opts)
	writeOpened(w, body, err, &s.metrics.ExploresSubmitted)
}

// openExplore opens an exploration of opts, new or recovered (see open).
func (s *Server) openExplore(m *results.Manifest, id string, opts dse.Options) ([]byte, error) {
	return s.open(m, id, func(sub *submission) {
		sub.view = exploreView{ID: sub.id, Status: statusRunning, Report: dse.Report{Strategy: opts.Strategy.Name(), SpaceSize: opts.Space.Size()}}
	}, liveExploreLocked, func(sub *submission) { s.driveExplore(sub, opts) })
}

// liveExploreLocked is an exploration's liveView: its latest snapshot. Only
// its driver settles it. Callers must hold s.mu.
func liveExploreLocked(sub *submission) func() []byte {
	v := sub.view
	return func() []byte {
		b, _ := json.Marshal(v) // nil when refused: the status goes alone
		return b
	}
}

// exploreOptions resolves an exploration request and bounds its grid:
// the exhaustive strategy materializes every point and a tier registers
// every cell of its batch at once, so a huge space is refused up front,
// not discovered OOM. (Space.Size saturates instead of overflowing.)
func exploreOptions(er *dse.Request) (dse.Options, error) {
	opts, err := er.Options()
	if err != nil {
		return dse.Options{}, err
	}
	if n := opts.Space.Size(); n > maxExplorePoints {
		return dse.Options{}, fmt.Errorf("space has %d points, limit %d: shrink an axis or use strategy random/climb over a sub-space", n, maxExplorePoints)
	}
	return opts, nil
}

// driveExplore runs the engine to completion and settles the exploration
// with its final reply.
func (s *Server) driveExplore(sub *submission, opts dse.Options) {
	t := opts.Twin
	opts.Evaluator = &queueEvaluator{s: s, sim: &dse.SimEvaluator{Programs: t.Programs, Insts: t.Insts, Warmup: t.Warmup}}
	opts.Concurrency = s.opts.Workers
	opts.Observer = func(rep *dse.Report) {
		s.mu.Lock()
		snapshotReport(&sub.view, rep, false)
		s.mu.Unlock()
	}
	rep, err := dse.Explore(opts)
	if rep != nil && rep.TwinMode != "" {
		s.metrics.TwinPredictions.Add(uint64(rep.TwinPredictions))
		s.metrics.TwinSimsAvoided.Add(uint64(rep.SimsAvoided))
		s.metrics.observeTwinMAPE(rep.TwinMAPE)
	}
	s.mu.Lock()
	// A shutdown fails the runs it cuts short and refuses later batches, so
	// the candidates they score count as failed and the report is partial,
	// whatever err says. That is not a terminal outcome: this process
	// reports the exploration failed, and leaving the manifest open lets the
	// next one replay it instead of serving the partial frontier forever.
	aborted := s.closed
	v := sub.view
	if rep != nil {
		snapshotReport(&v, rep, true)
	}
	switch {
	case aborted:
		v.Status, v.Error = statusFailed, errClosed.Error()
	case err != nil:
		v.Status, v.Error = statusFailed, err.Error()
	default:
		v.Status = statusDone
	}
	final, _ := json.Marshal(v) // nil when refused: the status goes alone
	settleLocked(sub, final)
	// GETs serve final from now on; the outcome is all a reader of the
	// view still needs.
	sub.view = exploreView{Status: v.Status, Error: v.Error}
	s.mu.Unlock()
	if aborted {
		close(sub.retired)
	} else {
		s.retire(sub)
	}
}

// queueEvaluator scores an exploration's batches through the server's run
// registry, pending pool and workers, exactly like a sweep of the same
// cells (see settle). Turning candidates into requests and outcomes into
// objectives is dse.SimEvaluator's (EvaluateBatchWith); sim carries the
// exploration's suite, budgets and fidelity, and no store of its own.
type queueEvaluator struct {
	s   *Server
	sim *dse.SimEvaluator
}

// WithSampling implements dse.Evaluator: the variant routes the same runs
// through the same pool and store, but at sampled fidelity — the sampled
// keys never collide with exact ones, so the search tier and the exact
// confirmation tier coexist in one registry.
func (e *queueEvaluator) WithSampling(sp harness.Sampling) dse.Evaluator {
	sim := &dse.SimEvaluator{Programs: e.sim.Programs, Insts: e.sim.Insts, Warmup: e.sim.Warmup, Sampling: sp}
	return &queueEvaluator{s: e.s, sim: sim}
}

// EvaluateBatch implements dse.Evaluator. It blocks until every run of the
// batch is terminal, or the server shuts down, which fails the runs still
// outstanding.
func (e *queueEvaluator) EvaluateBatch(cfgs []core.Config, programs [][]string) ([]dse.Objectives, []dse.EvalStats, []error) {
	objs, stats, errs := e.sim.EvaluateBatchWith(e.settle, cfgs, programs)
	m := &e.s.metrics
	for i, st := range stats {
		m.ExploreSims.Add(uint64(st.Sims))
		m.ExploreCacheHits.Add(uint64(st.CacheHits))
		if errs[i] == nil {
			m.ExplorePoints.Add(1)
		}
	}
	return objs, stats, errs
}

// settle is the daemon's settle step for a flattened batch. Every request
// registers in one critical section, as a sweep's members do
// (registerBatchLocked): it coalesces by content key with any in-flight or
// finished run, the store answers the warm ones without simulating, and
// the rest are fed to the pool one workload after the other. The
// unfinished ones are then waited on together. A request that does not
// validate, and every one still outstanding when the server shuts down,
// settles as a failed record. A run finished before registration or
// answered from the store is a hit, as is a key repeated within the batch;
// the rest were simulated.
func (e *queueEvaluator) settle(reqs []harness.Request) []results.Outcome {
	s := e.s
	out := make([]results.Outcome, len(reqs))
	fail := func(i int, err error) {
		out[i].Result = results.Result{Config: reqs[i].Config.Name, Program: reqs[i].Workload.Name(), Err: err.Error()}
	}
	var cells []int // the requests that validate, in order
	var valid []harness.Request
	var jobs []results.Job
	for i, req := range reqs {
		key, err := prepare(req)
		if err != nil {
			fail(i, err)
			continue
		}
		cells = append(cells, i)
		valid = append(valid, req)
		jobs = append(jobs, results.Job{Key: key, Request: results.NewRequest(req)})
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, i := range cells {
			fail(i, errClosed)
		}
		return out
	}
	sts, hits := s.registerBatchLocked(valid, jobs)
	waits := subscribeLocked(sts)
	s.mu.Unlock()
	s.await(waits) // after a quit, what is unfinished fails below

	s.mu.Lock()
	defer s.mu.Unlock()
	counted := make(map[*runState]bool, len(sts))
	for k, st := range sts {
		st.refs--
		if !st.status.terminal() {
			fail(cells[k], errClosed)
			continue
		}
		out[cells[k]] = results.Outcome{Result: st.result, Hit: hits[k] || st.cached || counted[st]}
		counted[st] = true
	}
	return out
}
