package server

// Design-space exploration over HTTP: POST /v1/explore starts an async
// search (internal/dse) whose candidate evaluations flow through the same
// bounded queue, worker pool, and content-addressed result store as
// direct runs and sweeps — an exploration re-visiting any dse candidate
// ever simulated by this service (or found in its disk store) costs zero
// new simulations, across strategies, explorations, and restarts. (The
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
// request (or a denial of service), not a search.
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
	// TwinEpsilon widens the twin's verification neighborhood
	// (0 = dse.DefaultTwinEpsilon; negative = exactly the predicted
	// frontier).
	TwinEpsilon float64 `json:"twin_epsilon,omitempty"`
	// Fidelity selects the search tier's execution fidelity ("exact" or
	// "sampled(interval,window,warm)"); the final frontier is always
	// re-scored exactly. Empty inherits the server's -fidelity default.
	Fidelity string `json:"fidelity,omitempty"`
}

// exploreState tracks one exploration through its registry.
type exploreState struct {
	id     string
	status runStatus
	// view is the latest progress snapshot, refreshed after every batch
	// and finalized when the driver finishes. Guarded by Server.mu.
	view exploreView
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
	st := &exploreState{id: id, status: statusRunning}
	st.view = exploreView{ID: st.id, Status: statusRunning, Strategy: strat.Name(), SpaceSize: space.Size()}
	s.explores[st.id] = st
	s.exploreOrder = append(s.exploreOrder, st.id)
	s.evictExploresLocked()
	v := st.view
	s.exploreWG.Add(1)
	s.mu.Unlock()
	s.metrics.ExploresSubmitted.Add(1)
	s.journalManifestOpen(id, manifest)

	go s.driveExplore(st, space, strat, programs, twin, sp, er)
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
	// and the engine spawns a goroutine per batch member, so a huge
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

// driveExplore runs the engine to completion and finalizes the state.
func (s *Server) driveExplore(st *exploreState, space dse.Space, strat dse.Strategy, programs []string, twin dse.TwinMode, sp harness.Sampling, er exploreRequest) {
	defer s.exploreWG.Done()
	ev := &queueEvaluator{s: s, programs: programs, insts: er.Insts, warmup: er.Warmup}
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
			Epsilon:  er.TwinEpsilon,
			Programs: programs,
			Insts:    er.Insts,
			Warmup:   er.Warmup,
		},
		Observer: func(rep *dse.Report) {
			s.mu.Lock()
			snapshotReport(&st.view, rep, false)
			s.mu.Unlock()
		},
	})
	if rep != nil && rep.TwinMode != "" {
		s.metrics.TwinPredictions.Add(uint64(rep.TwinPredictions))
		s.metrics.TwinSimsAvoided.Add(uint64(rep.SimsAvoided))
		s.metrics.observeTwinMAPE(rep.TwinMAPE)
	}
	s.mu.Lock()
	if rep != nil {
		snapshotReport(&st.view, rep, true)
	}
	if err != nil {
		st.status = statusFailed
		st.view.Error = err.Error()
	} else {
		st.status = statusDone
	}
	st.view.Status = st.status
	// Now terminal: settle any eviction debt deferred while running.
	s.evictExploresLocked()
	v := st.view
	s.mu.Unlock()
	// A shutdown abort is not a terminal outcome: leaving the manifest
	// open lets the next process replay the exploration instead of
	// reporting a phantom failure forever.
	if !errors.Is(err, errClosed) {
		s.journalExploreDone(v)
	}
}

// handleGetExplore reports exploration progress and the running
// frontier. Ids the registry forgot re-attach from the manifest's
// terminal snapshot (see exploreFallback).
func (s *Server) handleGetExplore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.explores[id]
	var v exploreView
	if ok {
		v = st.view
	}
	s.mu.Unlock()
	if !ok {
		if s.exploreFallback(w, id) {
			return
		}
		httpError(w, http.StatusNotFound, errors.New("unknown exploration id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// evictExploresLocked drops oldest terminal explorations beyond
// MaxExplores. Running explorations are skipped (their drivers still
// hold workers; dropping the state would orphan the result), so the
// registry may transiently exceed the cap while everything is live.
// Callers must hold s.mu.
func (s *Server) evictExploresLocked() {
	scans := len(s.exploreOrder)
	for i := 0; i < scans && len(s.exploreOrder) > s.opts.MaxExplores; i++ {
		id := s.exploreOrder[0]
		s.exploreOrder = s.exploreOrder[1:]
		if st, ok := s.explores[id]; ok && st.status == statusRunning {
			s.exploreOrder = append(s.exploreOrder, id)
			continue
		}
		delete(s.explores, id)
	}
}

// queueEvaluator scores one candidate by routing its program runs through
// the server's pending pool and workers, exactly like direct /v1/runs
// submissions: content-key registration coalesces with any in-flight or
// finished run, the result store answers warm points without simulating,
// and the area objective comes from the shared layout model.
type queueEvaluator struct {
	s             *Server
	programs      []string
	insts, warmup uint64
	sampling      harness.Sampling
}

// WithSampling implements dse.FidelityEvaluator: the variant routes the
// same runs through the same pool and store, but at sampled fidelity —
// the sampled keys never collide with exact ones, so the search tier and
// the exact confirmation tier coexist in one registry.
func (e *queueEvaluator) WithSampling(sp harness.Sampling) dse.Evaluator {
	v := *e
	v.sampling = sp
	return &v
}

// Evaluate implements dse.Evaluator. It blocks until every program run of
// the candidate is terminal (or the server closes). programs carries a
// workload-axis candidate's scenario; nil falls back to the
// exploration's program suite.
func (e *queueEvaluator) Evaluate(cfg core.Config, programs []string) (dse.Objectives, dse.EvalStats, error) {
	s := e.s
	var est dse.EvalStats
	if programs == nil {
		programs = e.programs
	}
	var sumIPC float64
	for _, prog := range programs {
		spec, err := workload.ParseSpec(prog)
		if err != nil {
			return dse.Objectives{}, est, err
		}
		req := harness.Request{Config: cfg, Workload: spec, Insts: e.insts, Warmup: e.warmup, Sampling: e.sampling}
		key, err := prepare(req)
		if err != nil {
			return dse.Objectives{}, est, err
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return dse.Objectives{}, est, errClosed
		}
		st, fresh, hit := s.registerLocked(req, key)
		if hit {
			res := st.result
			s.mu.Unlock()
			est.CacheHits++
			s.metrics.ExploreCacheHits.Add(1)
			if res.Failed() {
				return dse.Objectives{}, est, fmt.Errorf("%s/%s: %s", cfg.Name, prog, res.Err)
			}
			stats := res.Stats
			sumIPC += stats.IPC()
			continue
		}
		// Pin the run so registry eviction cannot drop it mid-wait, and
		// subscribe before releasing the lock so the finish can't be missed.
		st.refs++
		done := make(chan struct{})
		st.waiters = append(st.waiters, done)
		s.mu.Unlock()

		if fresh {
			// Waits for room in the pool; a stopped pool refuses the job and
			// the wait below ends on quit.
			j := results.Job{Key: key, Request: results.NewRequest(req)}
			s.journalEnqueue(key, j.Request)
			s.enqueue(j)
		}
		select {
		case <-done:
		case <-s.quit:
			e.unpin(st)
			return dse.Objectives{}, est, errClosed
		}

		s.mu.Lock()
		res := st.result
		simulated := !st.cached
		st.refs--
		s.mu.Unlock()
		if simulated {
			est.Sims++
			s.metrics.ExploreSims.Add(1)
		} else {
			est.CacheHits++
			s.metrics.ExploreCacheHits.Add(1)
		}
		if res.Failed() {
			return dse.Objectives{}, est, fmt.Errorf("%s/%s: %s", cfg.Name, prog, res.Err)
		}
		stats := res.Stats
		sumIPC += stats.IPC()
	}
	s.metrics.ExplorePoints.Add(1)
	return dse.Objectives{
		IPC:  sumIPC / float64(len(programs)),
		Area: dse.Area(cfg),
	}, est, nil
}

// unpin releases a waited-on run reference after an aborted wait.
func (e *queueEvaluator) unpin(st *runState) {
	e.s.mu.Lock()
	st.refs--
	e.s.mu.Unlock()
}
