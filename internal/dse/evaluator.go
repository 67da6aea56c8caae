package dse

import (
	"fmt"
	"log"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/results"
	"repro/internal/workload"
)

// EvalStats reports how one candidate evaluation was satisfied.
type EvalStats struct {
	// Sims is the number of simulations actually run.
	Sims int
	// CacheHits is the number of program runs answered from the result
	// store without simulating.
	CacheHits int
}

// Evaluator scores a batch of materialized configurations, each on its
// workload: programs[i] is candidate i's scenario (spec strings, possibly
// synthetic), and nil means the evaluator's own default suite. All three
// returned slices are parallel to cfgs. WithSampling derives the variant
// that runs every program at the given fidelity over the same result
// store; sampled results key distinctly from exact ones, so an
// exploration's sampled search tier and exact confirmation tier never
// contaminate each other's cache.
type Evaluator interface {
	EvaluateBatch(cfgs []core.Config, programs [][]string) ([]Objectives, []EvalStats, []error)
	WithSampling(harness.Sampling) Evaluator
}

// SimEvaluator scores candidates locally: every workload program runs
// through harness.Execute behind the content-addressed result store, and
// the area objective comes from the Section 3.2 layout model. It is the
// evaluator the CLI uses; the ringsimd server reuses its request
// flattening and reduction (EvaluateBatchWith) around its own settle step,
// which routes the same requests through its worker pool.
type SimEvaluator struct {
	// Programs is the workload suite every candidate is scored on.
	Programs []string
	// Insts and Warmup are the harness.Request scalars.
	Insts, Warmup uint64
	// Sampling selects the execution fidelity of every program run (zero
	// value = exact). It flows into the request's content key, so sampled
	// scores never collide with exact ones in the Store.
	Sampling harness.Sampling
	// Store caches results by content hash; nil means a private
	// in-memory LRU (cache hits then only occur within one exploration).
	Store results.Store

	once sync.Once
}

// WithSampling implements Evaluator: the returned evaluator runs every
// program at the given fidelity and shares this evaluator's store.
func (e *SimEvaluator) WithSampling(sp harness.Sampling) Evaluator {
	e.init()
	return &SimEvaluator{
		Programs: e.Programs,
		Insts:    e.Insts,
		Warmup:   e.Warmup,
		Sampling: sp,
		Store:    e.Store,
	}
}

// init lazily defaults the store so the zero-value evaluator works.
func (e *SimEvaluator) init() {
	e.once.Do(func() {
		if e.Store == nil {
			e.Store = results.NewMemoryLRU(4096)
		}
	})
}

// Evaluate runs the candidate's workload (or, when programs is nil, the
// evaluator's default suite) for cfg and reduces it to (mean IPC, area):
// EvaluateBatch over a batch of one.
func (e *SimEvaluator) Evaluate(cfg core.Config, programs []string) (Objectives, EvalStats, error) {
	objs, stats, errs := e.EvaluateBatch([]core.Config{cfg}, [][]string{programs})
	return objs[0], stats[0], errs[0]
}

// EvaluateBatch scores a whole candidate batch at once, settling its
// requests through results.Run: cached requests are store hits, and the
// misses execute across one harness.GridRunsN pool — candidates sharing a
// program replay its one materialized trace instead of generating it once
// per candidate.
func (e *SimEvaluator) EvaluateBatch(cfgs []core.Config, programs [][]string) ([]Objectives, []EvalStats, []error) {
	e.init()
	return e.EvaluateBatchWith(func(reqs []harness.Request) []results.Outcome {
		return results.Run(e.Store, reqs, runtime.GOMAXPROCS(0))
	}, cfgs, programs)
}

// EvaluateBatchWith is EvaluateBatch with settle in place of the store:
// the (config, program) grid is flattened into one request list, settle
// resolves it to one outcome per request, in order, and the outcomes are
// reduced per candidate. A hit outcome counts as a cache hit and any other
// as a simulation. A candidate whose runs all succeed gets the (mean IPC,
// area) reduction, and a failing run records the candidate's first error.
// Store is not used.
func (e *SimEvaluator) EvaluateBatchWith(settle func([]harness.Request) []results.Outcome, cfgs []core.Config, programs [][]string) ([]Objectives, []EvalStats, []error) {
	n := len(cfgs)
	objs := make([]Objectives, n)
	stats := make([]EvalStats, n)
	errs := make([]error, n)

	var reqs []harness.Request
	var cands []int // the candidate each request scores
	for i, cfg := range cfgs {
		progs := programs[i]
		if progs == nil {
			progs = e.Programs
		}
		if len(progs) == 0 {
			errs[i] = fmt.Errorf("dse: evaluator has no programs")
			continue
		}
		start := len(reqs)
		for _, prog := range progs {
			spec, err := workload.ParseSpec(prog)
			if err != nil {
				// A candidate that cannot name its whole workload runs nothing.
				errs[i], reqs, cands = err, reqs[:start], cands[:start]
				break
			}
			reqs = append(reqs, harness.Request{Config: cfg, Workload: spec, Insts: e.Insts, Warmup: e.Warmup, Sampling: e.Sampling})
			cands = append(cands, i)
		}
	}

	sums := make([]float64, n)
	for k, o := range settle(reqs) {
		i := cands[k]
		if o.Hit {
			stats[i].CacheHits++
		} else {
			stats[i].Sims++
		}
		if o.PutErr != nil {
			// The score stands; only the next exploration's cache hit is lost.
			log.Printf("dse: store put %s: %v", o.Key, o.PutErr)
		}
		if o.Failed() && errs[i] == nil {
			errs[i] = fmt.Errorf("dse: %s/%s: %s", o.Config, o.Program, o.Err)
		}
		sums[i] += o.Stats.IPC()
	}
	for i, cfg := range cfgs {
		if errs[i] == nil {
			objs[i] = Objectives{IPC: sums[i] / float64(stats[i].Sims+stats[i].CacheHits), Area: Area(cfg)}
		}
	}
	return objs, stats, errs
}

// Area prices a configuration's cluster array with the paper's layout
// model: per-cluster block areas from the Table 1 cell model (issue
// queues and register files sized from the config), summed over both
// datapath sides and multiplied by the cluster count. Front-end and
// memory-hierarchy area is identical across candidates that share a base
// config, so the cluster array is the discriminating term.
func Area(cfg core.Config) float64 {
	lc := layout.DefaultConfig()
	lc.IssueQueueEntries = cfg.IQInt
	lc.CommQueueEntries = cfg.IQComm
	lc.Registers = cfg.RegsInt
	b := layout.Compute(lc)
	// One cluster = INT side + FP side: two issue queues and two register
	// files (the FP twins are sized identically in this search space),
	// one comm queue, and the three datapath blocks.
	perCluster := 2*b.IssueQueue.Area + b.CommQueue.Area + 2*b.RegFile.Area +
		b.IntALU.Area + b.IntMult.Area + b.FPU.Area
	// Extra issue ports grow the queue's CAM/RAM cells roughly linearly
	// with width; fold issue width in as a per-side multiplier so wider
	// clusters are not free.
	width := float64(cfg.IssueInt+cfg.IssueFP) / 2
	perCluster += (width - 1) * 2 * b.IssueQueue.Area
	return perCluster * float64(cfg.Clusters)
}
