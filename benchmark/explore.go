package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/predict"
	"repro/internal/results"
	"repro/internal/workload"
)

// Span names of the exploration.
const (
	spExplore  = "dse.explore"
	spProfile  = "predict.profile"
	spEvalSamp = "dse.evaluate_sampled"
	spEvalExct = "dse.evaluate_exact"
)

// runExplore is one pass of explore_funnel: the three-tier funnel
// `ringsim explore -twin on -fidelity sampled` runs — the analytical twin
// scores the whole grid, the sampled simulator verifies what the twin
// could not rule out, the exact simulator confirms the frontier — over a
// fresh in-memory store.
func runExplore(c *passCtx) error {
	p := c.p
	space, progs, err := exploreInputs(c.seed)
	if err != nil {
		return err
	}
	insts, warm := c.sz.exploreInsts, c.sz.exploreWarm
	store := newRecStore(results.NewMemoryLRU(4096), c.tr)
	sim := &dse.SimEvaluator{Programs: progs, Insts: insts, Warmup: warm, Store: store}
	var ev dse.Evaluator = sim
	var traced *spanEvaluator
	if c.tr != nil {
		traced = &spanEvaluator{sim: sim, tr: c.tr, name: spEvalExct}
		ev = traced
	}
	c.ready()

	t0 := time.Now()
	root := c.tr.start(spExplore, "explore", 0)
	if traced != nil {
		traced.parent = root
		// The twin would build these on first use; asking first puts a
		// span around each without changing what is computed.
		for _, prog := range progs {
			spec, err := workload.ParseSpec(prog)
			if err != nil {
				return err
			}
			id := c.tr.start(spProfile, prog, root)
			_, err = harness.DefaultProfileCache.ProfileSpec(spec, insts, warm)
			c.tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	rep, err := dse.Explore(dse.Options{
		Space:     space,
		Strategy:  &dse.GridStrategy{},
		Evaluator: ev,
		Sampling:  harness.DefaultSampling,
		Twin:      &dse.TwinOptions{Mode: dse.TwinOn, Programs: progs, Insts: insts, Warmup: warm},
	})
	c.tr.end(root)
	p.PassS = time.Since(t0).Seconds()
	if err != nil {
		p.Attempted = 1
		p.fail(1, "explore: %v", err)
		return nil
	}

	p.Attempted = rep.Evaluated + rep.ExactConfirms + rep.Failed
	if rep.Failed > 0 {
		p.fail(rep.Failed, "explore: %d candidate evaluations failed", rep.Failed)
	}
	for _, pt := range rep.Frontier {
		p.Frontier = append(p.Frontier, frontierPoint{pt.Config, pt.Objectives.IPC, pt.Objectives.Area})
	}
	recs := store.records()
	if p.Digest, err = digest(recs); err != nil {
		return err
	}

	// How much the funnel simulates follows its inputs: it confirms 5 to 8
	// frontier points depending on the seed, a third of a second each.
	// The rate therefore counts the work done, so that runs at different
	// seeds measure the same thing: the instructions that went through an
	// instruction-by-instruction model — the profiler's summarizer, the
	// sampled windows, the exact confirmations. Fast-forwarded
	// instructions cost a tenth as much and are left out. The funnel's
	// time against fixed work is dse.effective_inst_per_s, which `compare`
	// gates.
	built := harness.DefaultProfileCache.Stats().Misses
	p.Insts = built * (insts + warm)
	for _, r := range recs {
		if r.Sampled != nil {
			p.Insts += r.Sampled.DetailedInsts
		} else {
			p.Insts += insts + warm
		}
	}

	l := p.Layer
	// The effective rate is the user's view: the instructions the whole
	// grid names, which they would otherwise have simulated, per second.
	l["dse.effective_inst_per_s"] = float64(uint64(space.Size()*len(progs))*(insts+warm)) / p.PassS
	harnessLayer(l, len(recs)) // every record is one single-stream run
	simulatedLayer(recs, l)
	resultsLayer(nil, recs, l)
	store.storeLayer(l)
	var windows uint64
	for _, r := range recs {
		if r.Sampled != nil {
			windows += r.Sampled.Windows
		}
	}
	l["harness.sampled_windows"] = float64(windows)
	l["predict.profiles_built"] = float64(built)
	l["dse.candidates"] = float64(rep.SpaceSize)
	l["dse.twin_predictions"] = float64(rep.TwinPredictions)
	if total := rep.SimsAvoided + rep.SimsRun + rep.CacheHits; total > 0 {
		l["dse.sims_avoided_frac"] = float64(rep.SimsAvoided) / float64(total)
	}
	l["dse.sampled_sims"] = float64(rep.SampledSims)
	l["dse.exact_confirms"] = float64(rep.ExactConfirms)
	l["dse.cache_hits"] = float64(rep.CacheHits)
	l["dse.frontier_size"] = float64(len(rep.Frontier))
	l["dse.twin_mape_pct"] = rep.TwinMAPE
	l["dse.sampled_ipc_err_mean_pct"] = sampledErrPct(recs, len(progs))
	if err := predictLayer(space, progs, insts, warm, l); err != nil {
		return err
	}
	if c.tr != nil {
		t := totals(c.tr.spans)
		l["predict.profile_s"] = t.dur[spProfile]
		l["harness.execute_sampled_s"] = t.dur[spEvalSamp]
		l["dse.evaluate_s"] = t.dur[spEvalSamp] + t.dur[spEvalExct]
		l["dse.explore_self_s"] = t.self[spExplore]
		l["proc.span_coverage_pct"] = 100 * t.dur[spExplore] / p.PassS
	}
	return nil
}

// sampledErrPct is the mean |sampled − exact| / exact of the candidate
// objective (mean IPC over the suite) over the candidates the funnel ran
// at both fidelities — the ones it confirmed exactly. Both sides are
// simulated numbers, so the figure repeats exactly.
func sampledErrPct(recs []results.Result, programs int) float64 {
	type sums struct {
		ipc [2]float64 // exact, sampled
		n   [2]int
	}
	by := make(map[string]*sums)
	for _, r := range recs {
		s := by[r.Config]
		if s == nil {
			s = &sums{}
			by[r.Config] = s
		}
		tier := 0
		if r.Sampled != nil {
			tier = 1
		}
		st := r.Stats
		s.ipc[tier] += st.IPC()
		s.n[tier]++
	}
	// Sorted, so the floating-point sum — and with it the last digit of a
	// figure that is meant to repeat exactly — does not follow map order.
	configs := make([]string, 0, len(by))
	for cfg := range by {
		configs = append(configs, cfg)
	}
	sort.Strings(configs)
	var sum float64
	var n int
	for _, cfg := range configs {
		s := by[cfg]
		if s.n[0] == programs && s.n[1] == programs && s.ipc[0] > 0 {
			sum += math.Abs(s.ipc[1]-s.ipc[0]) / s.ipc[0]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// predictLayer replays the twin's scoring of the whole grid — every valid
// candidate × every program's (already cached) profile — to price one
// closed-form prediction.
func predictLayer(space dse.Space, progs []string, insts, warm uint64, layer map[string]float64) error {
	profiles := make([]*predict.Profile, len(progs))
	for i, prog := range progs {
		spec, err := workload.ParseSpec(prog)
		if err != nil {
			return err
		}
		if profiles[i], err = harness.DefaultProfileCache.ProfileSpec(spec, insts, warm); err != nil {
			return err
		}
	}
	model := predict.DefaultModel()
	calls := 0
	t0 := time.Now()
	for _, cand := range space.Grid() {
		cfg, err := space.Config(cand)
		if err != nil {
			continue // an invalid grid point; the funnel skips it too
		}
		for _, prof := range profiles {
			if _, err := model.PredictIPC(prof, &cfg); err != nil {
				return err
			}
			calls++
		}
	}
	if calls > 0 {
		layer["predict.predict_us_per_call"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(calls)
	}
	return nil
}

// spanEvaluator wraps the exploration's evaluator from outside, keeping
// the two optional interfaces the engine type-asserts for, so the traced
// funnel batches and samples exactly like the untraced one.
type spanEvaluator struct {
	sim    *dse.SimEvaluator
	tr     *tracer
	name   string
	parent int
}

func (e *spanEvaluator) Evaluate(cfg core.Config, programs []string) (dse.Objectives, dse.EvalStats, error) {
	id := e.tr.start(e.name, cfg.Name, e.parent)
	defer e.tr.end(id)
	return e.sim.Evaluate(cfg, programs)
}

func (e *spanEvaluator) EvaluateBatch(cfgs []core.Config, programs [][]string) ([]dse.Objectives, []dse.EvalStats, []error) {
	id := e.tr.start(e.name, "batch", e.parent)
	defer e.tr.end(id)
	return e.sim.EvaluateBatch(cfgs, programs)
}

func (e *spanEvaluator) WithSampling(sp harness.Sampling) dse.Evaluator {
	return &spanEvaluator{sim: e.sim.WithSampling(sp).(*dse.SimEvaluator), tr: e.tr, name: spEvalSamp, parent: e.parent}
}
