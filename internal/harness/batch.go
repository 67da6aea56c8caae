package harness

import (
	"runtime"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Batched lockstep execution: when several requests share a workload
// (the common shape of a sweep — every configuration visits every
// workload), the group's machines advance together over one materialized
// trace. The per-request costs that depend only on the workload are paid
// once per group instead of once per run:
//
//   - trace generation/decode: one materialization serves every member
//     (each machine gets its own cursor over the shared backing array);
//   - front-end simulation: for single-stream workloads the L1I
//     hit/miss and branch-predictor outcomes are pure functions of the
//     trace and the front-end configuration, so one oracle pass
//     annotates the trace and every member with that front end reads
//     the annotations instead of simulating its own predictor and L1I
//     (see core.FrontEndOracle);
//   - locality: members advance in bounded cycle windows round-robin,
//     so the shared trace region being fetched stays hot across the
//     whole group instead of being streamed N times end-to-end.
//
// Statistics are bit-identical to running each request through Execute:
// machines never share mutable state, the oracle substitution is an
// exact precomputation, and where a machine pauses between lockstep
// windows cannot affect its simulation.

// lockstepWindow is how many cycles each member advances per round-robin
// turn. Large enough that per-switch overhead vanishes, small enough
// that the group stays within one trace region (~16k cycles ≈ a few
// thousand instructions per member).
const lockstepWindow = 1 << 14

// BatchStats counts batched-execution activity process-wide (exported by
// the ringsimd /metrics endpoint).
type BatchStats struct {
	// Groups counts executed multi-member groups.
	Groups uint64
	// GroupedRuns counts runs executed as members of a group.
	GroupedRuns uint64
	// AmortizedDecodes counts trace materialization passes avoided by
	// grouping: (members−1) × streams per group.
	AmortizedDecodes uint64
}

var batchGroups, batchRuns, batchAmortized atomic.Uint64

// BatchStatsSnapshot returns the process-wide batched-execution counters.
func BatchStatsSnapshot() BatchStats {
	return BatchStats{
		Groups:           batchGroups.Load(),
		GroupedRuns:      batchRuns.Load(),
		AmortizedDecodes: batchAmortized.Load(),
	}
}

// DefaultBatchSize is the automatic per-group member cap: enough to
// swallow a whole configuration sweep of one workload (the paper grid is
// 10 configurations), scaled up with available parallelism since each
// concurrent worker processes its own group.
func DefaultBatchSize() int {
	n := 8 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	if n > 64 {
		n = 64
	}
	return n
}

// groupKey identifies requests that can share one materialized workload:
// same canonical spec (which encodes per-stream budgets and seeds),
// same request-level budgets, and same fidelity (sampled requests never
// group with exact ones — their execution schedules differ).
type groupKey struct {
	name     string
	insts    uint64
	warmup   uint64
	sampling Sampling
}

// requestGroups partitions request indices into groups of at most
// maxGroup members sharing a groupKey, preserving first-appearance order
// of groups and request order within each group.
func requestGroups(reqs []Request, maxGroup int) [][]int {
	if maxGroup < 1 {
		maxGroup = 1
	}
	var groups [][]int
	open := make(map[groupKey]int) // key -> index into groups of the open group
	for i := range reqs {
		k := groupKey{name: reqs[i].Workload.Name(), insts: reqs[i].Insts, warmup: reqs[i].Warmup, sampling: reqs[i].Sampling}
		gi, ok := open[k]
		if !ok || len(groups[gi]) >= maxGroup {
			open[k] = len(groups)
			groups = append(groups, []int{i})
			continue
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// ExecuteBatch runs the requests with batched lockstep execution at the
// automatic group size, returning results in request order. It is the
// drop-in batched equivalent of calling Execute on each request.
func ExecuteBatch(reqs []Request) []Run {
	return ExecuteBatchN(reqs, DefaultBatchSize())
}

// ExecuteBatchN is ExecuteBatch with an explicit per-group member cap.
// A cap of 1 disables grouping entirely (every request runs through
// Execute).
func ExecuteBatchN(reqs []Request, maxGroup int) []Run {
	results := make([]Run, len(reqs))
	for _, g := range requestGroups(reqs, maxGroup) {
		executeGroup(reqs, g, results)
	}
	return results
}

// oracleKey identifies a front-end configuration for oracle sharing
// within a group.
type oracleKey struct {
	bp  bpred.Config
	l1i cache.Config
}

// StreamBudgets returns the instruction prefix each stream of spec must
// materialize for a request with the given request-level budgets: the
// measured budget (the stream's own Insts, or the request default) plus
// the stream's share of the warmup window. It is the single definition of
// per-stream trace length, shared by the local batch executor and the
// fleet's coordinator-served trace refs, so a worker prefetching a trace
// gets exactly the prefix its simulations will consume.
func StreamBudgets(spec workload.Spec, insts, warmup uint64) []uint64 {
	n := len(spec.Streams)
	out := make([]uint64, n)
	for i, s := range spec.Streams {
		if n == 1 {
			out[i] = warmup + streamBudget(s, insts)
			continue
		}
		warm := warmup / uint64(n)
		if uint64(i) < warmup%uint64(n) {
			warm++
		}
		out[i] = warm + streamBudget(s, insts)
	}
	return out
}

// groupStreams materializes the group's shared per-stream traces once.
// Stream i of every member replays shared[i] through a private cursor.
// Falls back to a one-off private store when the trace cache cannot admit
// the stream (the generation pass is still paid once for the whole group).
func groupStreams(spec workload.Spec, insts, warmup uint64) ([]trace.View, error) {
	budgets := StreamBudgets(spec, insts, warmup)
	shared := make([]trace.View, len(spec.Streams))
	for i, s := range spec.Streams {
		v, ok, err := DefaultTraceCache.view(s.Program, s.Seed, budgets[i])
		if err != nil {
			return nil, err
		}
		if !ok {
			gen, err := workload.NewStream(s.Program, s.Seed)
			if err != nil {
				return nil, err
			}
			var private trace.Packed
			private.Reserve(int(budgets[i]))
			if err := private.Extend(gen, int(budgets[i])); err != nil {
				return nil, err
			}
			v = private.View(private.Len())
		}
		shared[i] = v
	}
	return shared, nil
}

// executeGroup runs one group of requests in lockstep over shared
// materialized streams, writing each member's Run into results at its
// original request index. Singleton groups take the plain Execute path.
func executeGroup(reqs []Request, idxs []int, results []Run) {
	if len(idxs) == 1 {
		results[idxs[0]] = Execute(reqs[idxs[0]])
		return
	}
	if reqs[idxs[0]].Sampling.Enabled() {
		// Sampled members cannot run in lockstep (fast-forward spans and
		// drains desynchronize the shared-trace schedule), but they still
		// share the materialized trace through the cache.
		for _, ri := range idxs {
			results[ri] = Execute(reqs[ri])
		}
		return
	}
	// All members share spec/insts/warmup by construction.
	proto := reqs[idxs[0]]
	spec := proto.Workload
	fail := func(err error) {
		for _, ri := range idxs {
			results[ri] = Run{Config: reqs[ri].Config, Workload: spec.Name(), Err: err}
		}
	}
	if err := spec.Validate(); err != nil {
		fail(err)
		return
	}
	cls, err := spec.Class()
	if err != nil {
		fail(err)
		return
	}
	shared, err := groupStreams(spec, proto.Insts, proto.Warmup)
	if err != nil {
		fail(err)
		return
	}

	batchGroups.Add(1)
	batchRuns.Add(uint64(len(idxs)))
	batchAmortized.Add(uint64(len(idxs)-1) * uint64(len(shared)))

	// Front-end oracles, one per distinct front-end configuration in the
	// group (single-stream workloads only; see core.FrontEndOracle).
	var oracles map[oracleKey]*core.FrontEndOracle
	if len(shared) == 1 {
		oracles = make(map[oracleKey]*core.FrontEndOracle, 1)
	}

	type member struct {
		ri      int // index into reqs/results
		m       *core.Machine
		warming bool
		done    bool
	}
	members := make([]member, 0, len(idxs))
	defer func() {
		for i := range members {
			if members[i].m != nil {
				machinePool.Put(members[i].m)
			}
		}
	}()
	for _, ri := range idxs {
		req := reqs[ri]
		results[ri] = Run{Config: req.Config, Workload: spec.Name(), Class: cls}
		streams := make([]trace.Stream, len(shared))
		for si := range shared {
			streams[si] = shared[si].Replay()
		}
		var m *core.Machine
		var err error
		if pooled, _ := machinePool.Get().(*core.Machine); pooled != nil {
			m, err = pooled, pooled.ResetMulti(req.Config, streams)
		} else {
			m, err = core.NewMulti(req.Config, streams)
		}
		if err != nil {
			results[ri].Err = err
			if m != nil {
				machinePool.Put(m)
			}
			continue
		}
		if oracles != nil {
			k := oracleKey{bp: req.Config.Bpred, l1i: req.Config.Mem.L1I}
			o := oracles[k]
			if o == nil {
				o = core.BuildFrontEndOracle(shared[0], k.bp, k.l1i)
				oracles[k] = o
			}
			m.SetFrontEndOracle(o)
		}
		members = append(members, member{ri: ri, m: m, warming: proto.Warmup > 0})
	}

	// Round-robin lockstep: each live member advances one bounded window
	// per pass, so the group walks the shared trace together.
	remaining := len(members)
	for remaining > 0 {
		for i := range members {
			mb := &members[i]
			if mb.done {
				continue
			}
			stop := mb.m.Now() + lockstepWindow
			for {
				if mb.warming {
					reached, err := mb.m.RunWindow(stop, proto.Warmup)
					if err != nil {
						results[mb.ri].Err = err
						mb.done = true
						remaining--
						break
					}
					if !reached {
						break // window exhausted mid-warmup
					}
					mb.m.ResetStats()
					mb.warming = false
					continue
				}
				finished, err := mb.m.RunWindow(stop, 0)
				if err != nil {
					results[mb.ri].Err = err
					mb.done = true
					remaining--
					break
				}
				if finished {
					results[mb.ri].Stats = mb.m.Stats()
					mb.done = true
					remaining--
				}
				break
			}
		}
	}
}
