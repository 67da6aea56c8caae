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

// Evaluator scores one materialized configuration on a workload.
// programs is the candidate's scenario (spec strings, possibly
// synthetic); nil means the evaluator's own default suite.
// Implementations must be safe for concurrent use: the engine evaluates
// whole batches at once.
type Evaluator interface {
	Evaluate(cfg core.Config, programs []string) (Objectives, EvalStats, error)
}

// FidelityEvaluator is an optional extension of Evaluator: an
// implementation that can derive a variant of itself running at a given
// sampling fidelity (harness.Request.Sampling). The engine uses it to run
// an exploration's search tier sampled while keeping the original
// evaluator for the exact confirmation of the final frontier; the two
// variants share the result store, and sampled results key distinctly
// from exact ones, so the tiers never contaminate each other's cache.
type FidelityEvaluator interface {
	Evaluator
	WithSampling(harness.Sampling) Evaluator
}

// BatchEvaluator is an optional extension of Evaluator: an implementation
// that can score a whole batch of candidates in one call, scheduling
// candidates that share a workload next to each other over its one
// materialized trace (harness.GridRunsN). The engine type-asserts for it
// and falls back to concurrent per-candidate Evaluate calls when the
// evaluator does not implement it (e.g. the ringsimd queue-backed
// evaluator, whose worker pool is the parallelism). All three returned
// slices are parallel to cfgs.
type BatchEvaluator interface {
	EvaluateBatch(cfgs []core.Config, programs [][]string) ([]Objectives, []EvalStats, []error)
}

// SimEvaluator scores candidates locally: every workload program runs
// through harness.Execute behind the content-addressed result store, and
// the area objective comes from the Section 3.2 layout model. It is the
// evaluator the CLI and examples use; the ringsimd server substitutes its
// own implementation that routes the same requests through its worker
// pool.
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

// WithSampling implements FidelityEvaluator: the returned evaluator runs
// every program at the given fidelity and shares this evaluator's store.
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

// EvaluateBatch scores a whole candidate batch at once. The (config,
// program) grid is flattened into one request list and settled through
// results.Run: cached requests are store hits, and the misses execute
// across one harness.GridRunsN pool — candidates sharing a program replay
// its one materialized trace instead of generating it once per candidate.
// A candidate whose runs all succeed gets the (mean IPC, area) reduction,
// and a failing run records the candidate's first error.
func (e *SimEvaluator) EvaluateBatch(cfgs []core.Config, programs [][]string) ([]Objectives, []EvalStats, []error) {
	e.init()
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
	for k, o := range results.Run(e.Store, reqs, runtime.GOMAXPROCS(0)) {
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

// Concurrency returns the engine's default evaluation parallelism.
func Concurrency() int { return runtime.GOMAXPROCS(0) }
