package dse

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Options configures one exploration.
type Options struct {
	// Space is the search domain. Required.
	Space Space
	// Strategy decides which candidates to try. Required.
	Strategy Strategy
	// Evaluator scores candidates. Required.
	Evaluator Evaluator
	// Budget caps the number of candidates evaluated (0 = the grid
	// size, so exhaustive search always terminates).
	Budget int
	// Concurrency is the number of workers the twin funnel builds its
	// workload profiles on. Default: GOMAXPROCS. It does not touch
	// evaluation, which the Evaluator schedules.
	Concurrency int
	// Seed drives the stochastic strategies; the same seed replays the
	// same exploration.
	Seed int64
	// Observer, when set, is called after every completed batch with the
	// running report. The engine calls it from one goroutine at a time.
	Observer func(*Report)
	// Twin, when non-nil with Mode on/auto, gates the simulator behind
	// the analytical twin (see twin.go). Nil = exact exhaustive path.
	Twin *TwinOptions
	// Sampling, when enabled, runs the search tier at sampled fidelity
	// (harness.Request.Sampling) and re-scores the resulting frontier
	// exactly, so the reported frontier objectives are always exact
	// numbers: the search tier scores through Evaluator.WithSampling, the
	// confirmation through Evaluator itself. Combined with the twin this
	// yields three cost tiers: closed-form scoring, sampled verification,
	// exact frontier confirmation.
	Sampling harness.Sampling
}

// Report is the outcome of an exploration.
type Report struct {
	// Strategy is the strategy name.
	Strategy string `json:"strategy"`
	// SpaceSize is the full grid cardinality of the space.
	SpaceSize int `json:"space_size"`
	// Proposed counts candidates the strategy offered (after dedupe).
	Proposed int `json:"proposed"`
	// Evaluated counts candidates actually scored.
	Evaluated int `json:"evaluated"`
	// Skipped counts candidates whose configuration failed validation
	// (e.g. a ring too deep for the bus reservation window).
	Skipped int `json:"skipped"`
	// Failed counts candidates whose simulation errored.
	Failed int `json:"failed"`
	// SimsRun counts individual program simulations executed.
	SimsRun int `json:"sims_run"`
	// CacheHits counts program runs served from the result store.
	CacheHits int `json:"cache_hits"`
	// Rounds counts propose-evaluate cycles.
	Rounds int `json:"rounds"`
	// Frontier is the final Pareto set, ascending by area.
	Frontier []Point `json:"frontier"`
	// Points is every evaluated point, in evaluation order.
	Points []Point `json:"points,omitempty"`

	// Twin accounting, populated only when the analytical twin gated
	// this exploration (TwinMode "on").
	//
	// TwinMode records whether the twin was active. TwinPredictions
	// counts closed-form scorings and SimsAvoided the program runs the
	// gate skipped, both in program-run units so they compare directly
	// with SimsRun+CacheHits. TwinVerified counts candidates the
	// simulator confirmed, and TwinMAPE is the mean absolute percentage
	// error of predicted vs simulated IPC over them.
	TwinMode        string  `json:"twin,omitempty"`
	TwinPredictions int     `json:"predictions_total,omitempty"`
	SimsAvoided     int     `json:"sims_avoided,omitempty"`
	TwinVerified    int     `json:"twin_verified,omitempty"`
	TwinMAPE        float64 `json:"twin_mape,omitempty"`

	// Fidelity accounting, populated when the search tier ran at sampled
	// fidelity. Fidelity is the canonical sampling spelling
	// ("sampled(interval,window,warm)"); SampledSims counts program runs
	// executed sampled; ExactConfirms counts frontier candidates
	// re-scored exactly in the confirmation tier, whose objectives are
	// the ones the final frontier reports.
	Fidelity      string `json:"fidelity,omitempty"`
	SampledSims   int    `json:"sampled_sims,omitempty"`
	ExactConfirms int    `json:"exact_confirms,omitempty"`
}

// CacheHitRate returns the fraction of program runs served from cache.
func (r *Report) CacheHitRate() float64 {
	total := r.SimsRun + r.CacheHits
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// Explore runs the strategy to completion over the space and returns the
// Pareto frontier. Each batch of candidates is handed to the evaluator in
// one EvaluateBatch call; every evaluation flows through the evaluator's
// result store, so repeated explorations of overlapping spaces re-simulate
// nothing. The exploration holds the traces of the programs its rounds and
// tiers still have work for (see traceHolds), so they share one
// materialization per stream — except the twin funnel, whose resident
// traces follow its evaluator's runs. Every trace is let go when Explore
// returns.
func Explore(opts Options) (*Report, error) {
	if err := opts.Space.Validate(); err != nil {
		return nil, err
	}
	if opts.Strategy == nil {
		return nil, fmt.Errorf("dse: no strategy")
	}
	if opts.Evaluator == nil {
		return nil, fmt.Errorf("dse: no evaluator")
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = opts.Space.Size()
	}
	ev := opts.Evaluator
	var exact Evaluator // the confirmation tier's, when the search runs sampled
	if opts.Sampling.Enabled() {
		ev, exact = ev.WithSampling(opts.Sampling), ev
	}
	twin, err := opts.Twin.Enabled(opts.Strategy, opts.Space.Size())
	if err != nil {
		return nil, err
	}
	holds := newTraceHolds(opts, twin)
	defer holds.narrow(&opts.Space, nil)
	if twin {
		return exploreTwin(opts, ev, exact, budget)
	}

	st := &State{
		Space:     &opts.Space,
		Rand:      rand.New(rand.NewSource(opts.Seed)),
		Frontier:  &Frontier{},
		Evaluated: make(map[string]Point),
		Seen:      make(map[string]bool),
	}
	rep := &Report{Strategy: opts.Strategy.Name(), SpaceSize: opts.Space.Size()}
	if exact != nil {
		rep.Fidelity = opts.Sampling.String()
	}

	for rep.Evaluated+rep.Skipped+rep.Failed < budget {
		batch := opts.Strategy.Next(st)
		if len(batch) == 0 {
			break
		}
		// Dedupe against everything already proposed, then clip to budget.
		fresh := batch[:0]
		for _, c := range batch {
			k := c.Key()
			if st.Seen[k] {
				continue
			}
			st.Seen[k] = true
			fresh = append(fresh, c)
		}
		if room := budget - (rep.Evaluated + rep.Skipped + rep.Failed); len(fresh) > room {
			fresh = fresh[:room]
		}
		rep.Proposed += len(fresh)
		if len(fresh) == 0 {
			st.Round++
			continue
		}
		holds.cover(&opts.Space, fresh)
		rep.tally(fresh, evaluateBatch(&opts.Space, ev, fresh), exact != nil, func(_ int, p Point) {
			st.Evaluated[p.Candidate.Key()] = p
			st.Frontier.Add(p)
			rep.Evaluated++
			rep.Points = append(rep.Points, p)
		})
		st.Round++
		rep.Rounds = st.Round
		if opts.Observer != nil {
			rep.Frontier = st.Frontier.Points()
			opts.Observer(rep)
		}
	}
	rep.Frontier = st.Frontier.Points()
	if rep.Evaluated == 0 {
		return rep, fmt.Errorf("dse: no candidate evaluated (%d invalid, %d failed)", rep.Skipped, rep.Failed)
	}
	if exact != nil {
		confirmFrontierExact(&opts.Space, exact, rep, holds)
		if opts.Observer != nil {
			opts.Observer(rep)
		}
	}
	return rep, nil
}

// traceHolds is an exploration's hold on the trace cache. A program is
// held from the first simulated candidate that names it and let go once
// no later round or tier has a candidate left for it, so a stream is
// materialized once per exploration instead of once per round (a climb or
// random search, whose rounds are separate EvaluateBatch calls). The twin
// funnel needs none of this: each of its simulated tiers is one
// EvaluateBatch call, which holds every stream for exactly its runs
// (harness.GridRunsN in process, the run registry in ringsimd) and feeds
// them program by program, so it has no traceHolds (nil) and its resident
// traces follow the workers instead of the suite.
type traceHolds struct {
	// suite is what a candidate without workload axes runs: the twin
	// options' Programs, which name the evaluator's suite. An exploration
	// configured without them holds only workload-axis programs; each
	// evaluated batch still holds its own traces (harness.GridRunsN).
	suite []string
	held  map[string]workload.Spec // by program spec string
}

// newTraceHolds returns the exploration's holds: nil for the twin funnel.
func newTraceHolds(opts Options, twin bool) *traceHolds {
	if twin {
		return nil
	}
	h := &traceHolds{held: make(map[string]workload.Spec)}
	if opts.Twin != nil {
		h.suite = opts.Twin.Programs
	}
	return h
}

// programs returns what candidate c runs: its workload-axis scenario, or
// the suite.
func (h *traceHolds) programs(space *Space, c Candidate) []string {
	progs, err := space.Workloads(c)
	if err != nil {
		return nil
	}
	if progs == nil {
		return h.suite
	}
	return progs
}

// hold adds the programs not yet held. One that does not parse is left to
// the tier that runs it, which reports the error. hold, cover and narrow
// do nothing on a nil traceHolds.
func (h *traceHolds) hold(progs []string) {
	if h == nil {
		return
	}
	for _, p := range progs {
		if _, ok := h.held[p]; ok {
			continue
		}
		if spec, err := workload.ParseSpec(p); err == nil {
			harness.DefaultTraceCache.Hold(spec)
			h.held[p] = spec
		}
	}
}

// cover holds every program the candidates run.
func (h *traceHolds) cover(space *Space, cands []Candidate) {
	if h == nil {
		return
	}
	for _, c := range cands {
		h.hold(h.programs(space, c))
	}
}

// narrow releases every held program none of the candidates runs: what
// the tiers still to come no longer need. With no candidates it releases
// everything.
func (h *traceHolds) narrow(space *Space, cands []Candidate) {
	if h == nil {
		return
	}
	keep := make(map[string]bool)
	for _, c := range cands {
		for _, p := range h.programs(space, c) {
			keep[p] = true
		}
	}
	for p, spec := range h.held {
		if !keep[p] {
			harness.DefaultTraceCache.Release(spec)
			delete(h.held, p)
		}
	}
}

// confirmFrontierExact re-scores the frontier candidates of a sampled
// search with the exact evaluator and replaces the frontier with the
// exact objectives. The sampled tier only decided which candidates are
// worth exact simulation; the numbers the frontier reports are always
// exact. Candidates whose exact run fails stay out of the frontier and
// count as Failed; if every confirmation fails the sampled frontier is
// kept rather than reporting an empty one. The frontier is the last work
// the exploration has, so its programs are all that stays held.
func confirmFrontierExact(space *Space, exact Evaluator, rep *Report, holds *traceHolds) {
	if len(rep.Frontier) == 0 {
		return
	}
	cands := make([]Candidate, len(rep.Frontier))
	for i, p := range rep.Frontier {
		cands[i] = p.Candidate
	}
	holds.narrow(space, cands)
	frontier := &Frontier{}
	rep.tally(cands, evaluateBatch(space, exact, cands), false, func(_ int, p Point) {
		rep.ExactConfirms++
		frontier.Add(p)
	})
	if rep.ExactConfirms > 0 {
		rep.Frontier = frontier.Points()
	}
}

// tally adds one evaluated tier to the report: every candidate's program
// runs (sampled marks a tier run at sampled fidelity), the invalid ones
// as Skipped, the failed ones as Failed, and each scored one, in order,
// handed to scored with its index in cands.
func (rep *Report) tally(cands []Candidate, outs []outcome, sampled bool, scored func(i int, p Point)) {
	for i, o := range outs {
		rep.SimsRun += o.stats.Sims
		rep.CacheHits += o.stats.CacheHits
		if sampled {
			rep.SampledSims += o.stats.Sims
		}
		switch {
		case o.invalid:
			rep.Skipped++
		case o.err != nil:
			rep.Failed++
		default:
			scored(i, Point{Candidate: cands[i], Config: o.config, Objectives: o.obj})
		}
	}
}

// outcome is one candidate's evaluation result.
type outcome struct {
	config  string
	obj     Objectives
	stats   EvalStats
	invalid bool
	err     error
}

// evaluateBatch materializes the batch's valid candidates and hands them
// to the evaluator in one call, preserving order.
func evaluateBatch(space *Space, ev Evaluator, batch []Candidate) []outcome {
	outs := make([]outcome, len(batch))
	var cfgs []core.Config
	var progs [][]string
	var idx []int // position in batch of each materialized candidate
	for i, c := range batch {
		cfg, err := space.Config(c)
		if err != nil {
			outs[i] = outcome{invalid: true}
			continue
		}
		ps, err := space.Workloads(c)
		if err != nil {
			outs[i] = outcome{invalid: true}
			continue
		}
		cfgs = append(cfgs, cfg)
		progs = append(progs, ps)
		idx = append(idx, i)
	}
	if len(cfgs) == 0 {
		return outs
	}
	objs, stats, errs := ev.EvaluateBatch(cfgs, progs)
	for k, i := range idx {
		outs[i] = outcome{config: cfgs[k].Name, obj: objs[k], stats: stats[k], err: errs[k]}
	}
	return outs
}
