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
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// maxExplorePoints bounds the grid cardinality a single exploration may
// name. Each point is a full workload-suite evaluation, so even this cap
// is days of simulation on one machine; anything larger is a malformed
// request (or a denial of service), not a search. A tier of a grid this
// size registers all its cells at once, as a sweep of the same size does.
const maxExplorePoints = 4096

// exploreRequest is the POST /v1/explore body.
type exploreRequest struct {
	// Base is the configuration the axes vary over; defaults to the
	// paper's preferred Ring_8clus_1bus_2IW machine.
	Base *configJSON `json:"base,omitempty"`
	// Axes are the search dimensions (see internal/dse for knob names).
	Axes []dse.Axis `json:"axes"`
	// Strategy is "grid" (default), "random", or "climb".
	Strategy string `json:"strategy,omitempty"`
	// Budget caps evaluated candidates (0 = the grid size).
	Budget int `json:"budget,omitempty"`
	// Samples sizes the random strategy (0 = 32).
	Samples int `json:"samples,omitempty"`
	// Seed drives the stochastic strategies.
	Seed int64 `json:"seed,omitempty"`
	// Programs is the workload suite per candidate; empty means the full
	// suite.
	Programs []string `json:"programs,omitempty"`
	// Insts and Warmup are the per-program harness scalars.
	Insts  uint64 `json:"insts"`
	Warmup uint64 `json:"warmup"`
	// Twin gates the exploration with the analytical predictor: "on",
	// "off", or "auto". Empty falls back to the server's -twin default.
	Twin string `json:"twin,omitempty"`
	// Fidelity selects the search tier's execution fidelity ("exact" or
	// "sampled(interval,window,warm)"); the final frontier is always
	// re-scored exactly. Empty inherits the server's -fidelity default.
	Fidelity string `json:"fidelity,omitempty"`
}

// exploreView is the GET /v1/explore/{id} response body.
type exploreView struct {
	ID           string      `json:"id"`
	Status       runStatus   `json:"status"`
	Strategy     string      `json:"strategy"`
	SpaceSize    int         `json:"space_size"`
	Proposed     int         `json:"proposed"`
	Evaluated    int         `json:"evaluated"`
	Skipped      int         `json:"skipped"`
	Failed       int         `json:"failed"`
	SimsRun      int         `json:"sims_run"`
	CacheHits    int         `json:"cache_hits"`
	CacheHitRate float64     `json:"cache_hit_rate"`
	Rounds       int         `json:"rounds"`
	Frontier     []dse.Point `json:"frontier"`
	Points       []dse.Point `json:"points,omitempty"`
	Error        string      `json:"error,omitempty"`

	// Twin accounting, present only when the analytical twin gated this
	// exploration (see internal/predict).
	TwinMode        string  `json:"twin,omitempty"`
	TwinPredictions int     `json:"predictions_total,omitempty"`
	SimsAvoided     int     `json:"sims_avoided,omitempty"`
	TwinVerified    int     `json:"twin_verified,omitempty"`
	TwinMAPE        float64 `json:"twin_mape,omitempty"`

	// Fidelity accounting, present only when the search tier ran sampled
	// (see dse.Report).
	Fidelity      string `json:"fidelity,omitempty"`
	SampledSims   int    `json:"sampled_sims,omitempty"`
	ExactConfirms int    `json:"exact_confirms,omitempty"`
}

// snapshotReport projects a (running or final) dse report into the wire
// view. Slices are copied so later engine rounds never mutate a rendered
// response.
func snapshotReport(v *exploreView, rep *dse.Report, includePoints bool) {
	v.Strategy = rep.Strategy
	v.SpaceSize = rep.SpaceSize
	v.Proposed = rep.Proposed
	v.Evaluated = rep.Evaluated
	v.Skipped = rep.Skipped
	v.Failed = rep.Failed
	v.SimsRun = rep.SimsRun
	v.CacheHits = rep.CacheHits
	v.CacheHitRate = rep.CacheHitRate()
	v.Rounds = rep.Rounds
	v.TwinMode = rep.TwinMode
	v.TwinPredictions = rep.TwinPredictions
	v.SimsAvoided = rep.SimsAvoided
	v.TwinVerified = rep.TwinVerified
	v.TwinMAPE = rep.TwinMAPE
	v.Fidelity = rep.Fidelity
	v.SampledSims = rep.SampledSims
	v.ExactConfirms = rep.ExactConfirms
	v.Frontier = append([]dse.Point(nil), rep.Frontier...)
	if includePoints {
		v.Points = append([]dse.Point(nil), rep.Points...)
	}
}

// handleSubmitExplore validates and launches one exploration.
func (s *Server) handleSubmitExplore(w http.ResponseWriter, r *http.Request) {
	var er exploreRequest
	if !decodeBody(w, r, &er) {
		return
	}
	space, strat, programs, twin, sp, err := s.resolveExplore(&er)
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
	id, err := manifest.ID()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, submitStatus(errClosed), errClosed)
		return
	}
	sub := &submission{id: id, view: exploreView{ID: id, Status: statusRunning, Strategy: strat.Name(), SpaceSize: space.Size()}}
	s.addSubmissionLocked(sub)
	v := sub.view
	s.exploreWG.Add(1)
	s.mu.Unlock()
	s.metrics.ExploresSubmitted.Add(1)
	s.journalManifest(id, manifest)

	go s.driveExplore(sub, space, strat, programs, twin, sp, er)
	writeJSON(w, http.StatusAccepted, v)
}

// resolveExplore turns the wire request into a validated space, strategy,
// program list, twin mode, and search-tier sampling fidelity.
func (s *Server) resolveExplore(er *exploreRequest) (dse.Space, dse.Strategy, []string, dse.TwinMode, harness.Sampling, error) {
	fail := func(err error) (dse.Space, dse.Strategy, []string, dse.TwinMode, harness.Sampling, error) {
		return dse.Space{}, nil, nil, "", harness.Sampling{}, err
	}
	base := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
	if er.Base != nil {
		var err error
		if base, err = er.Base.resolve(); err != nil {
			return fail(fmt.Errorf("base: %w", err))
		}
	}
	space := dse.Space{Base: base, Axes: er.Axes}
	if err := space.Validate(); err != nil {
		return fail(err)
	}
	// Bound the grid: the exhaustive strategy materializes every point
	// and a tier registers every cell of its batch at once, so a huge
	// requested space must be refused up front, not discovered OOM.
	// (Space.Size saturates instead of overflowing, so the comparison is
	// safe for any axis product.)
	if space.Size() > maxExplorePoints {
		return fail(fmt.Errorf("space has %d points, limit %d: shrink an axis or use strategy random/climb over a sub-space", space.Size(), maxExplorePoints))
	}
	strat, err := dse.NewStrategy(er.Strategy, er.Samples)
	if err != nil {
		return fail(err)
	}
	// The request's twin field wins; empty inherits the server's -twin
	// default. An impossible combination (twin=on with a non-grid
	// strategy) is refused here, synchronously, not mid-exploration.
	twinSpec := er.Twin
	if twinSpec == "" {
		twinSpec = s.opts.Twin
	}
	twin, err := dse.ParseTwinMode(twinSpec)
	if err != nil {
		return fail(err)
	}
	if _, err := (&dse.TwinOptions{Mode: twin}).Enabled(strat, space.Size()); err != nil {
		return fail(err)
	}
	// Like -twin, fidelity is validated at submit time so a typo is a 400,
	// not an asynchronous exploration failure.
	sp, err := s.resolveFidelity(er.Fidelity)
	if err != nil {
		return fail(err)
	}
	programs := er.Programs
	if len(programs) == 0 {
		programs = workload.Names()
	}
	for _, p := range programs {
		// Full spec validation (not just fixed-profile lookup): programs
		// may be multi-stream specs or synthetic workloads.
		spec, err := workload.ParseSpec(p)
		if err != nil {
			return fail(err)
		}
		if err := spec.Validate(); err != nil {
			return fail(err)
		}
	}
	if er.Insts == 0 {
		return fail(errors.New("insts must be positive"))
	}
	return space, strat, programs, twin, sp, nil
}

// driveExplore runs the engine to completion and renders the
// exploration's final reply.
func (s *Server) driveExplore(sub *submission, space dse.Space, strat dse.Strategy, programs []string, twin dse.TwinMode, sp harness.Sampling, er exploreRequest) {
	defer s.exploreWG.Done()
	ev := &queueEvaluator{s: s, sim: &dse.SimEvaluator{Programs: programs, Insts: er.Insts, Warmup: er.Warmup}}
	rep, err := dse.Explore(dse.Options{
		Space:       space,
		Strategy:    strat,
		Evaluator:   ev,
		Budget:      er.Budget,
		Seed:        er.Seed,
		Sampling:    sp,
		Concurrency: s.opts.Workers,
		Twin: &dse.TwinOptions{
			Mode:     twin,
			Programs: programs,
			Insts:    er.Insts,
			Warmup:   er.Warmup,
		},
		Observer: func(rep *dse.Report) {
			s.mu.Lock()
			snapshotReport(&sub.view, rep, false)
			s.mu.Unlock()
		},
	})
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
	if rep != nil {
		snapshotReport(&sub.view, rep, true)
	}
	switch {
	case aborted:
		sub.view.Status = statusFailed
		sub.view.Error = errClosed.Error()
	case err != nil:
		sub.view.Status = statusFailed
		sub.view.Error = err.Error()
	default:
		sub.view.Status = statusDone
	}
	sub.final, _ = json.Marshal(sub.view) // nil when refused: the status goes alone
	sub.retired = make(chan struct{})
	// GETs serve final from now on; the outcome is all a reader of the
	// view still needs.
	sub.view = exploreView{Status: sub.view.Status, Error: sub.view.Error}
	s.mu.Unlock()
	if aborted {
		close(sub.retired)
	} else {
		s.retire(sub)
	}
}

// handleGetExplore reports exploration progress and the running
// frontier, and the final reply once the exploration is over. Ids the
// registry forgot are answered from their stored final reply (see
// serveManifestFinal).
func (s *Server) handleGetExplore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sub := s.submissionLocked(results.ManifestKindExplore, id)
	var v exploreView
	var final []byte
	if sub != nil {
		v, final = sub.view, sub.final
	}
	s.mu.Unlock()
	switch {
	case sub == nil:
		if !s.serveManifestFinal(w, results.ManifestKindExplore, id) {
			httpError(w, http.StatusNotFound, errors.New("unknown exploration id"))
		}
	case final != nil:
		<-sub.retired
		writeBody(w, http.StatusOK, final)
	default:
		writeJSON(w, http.StatusOK, v)
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
