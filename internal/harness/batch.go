package harness

import "sync/atomic"

// GridRunsN's workers share one pool of unstarted requests, ordered
// workload-major: requests that share a workload (the common shape of a
// sweep — every configuration visits every workload) sit next to each
// other, and every worker takes the oldest request left. The workers
// therefore converge on one workload at a time: the first Stream call for
// each of its streams materializes it, the workers' other runs replay it,
// and its last run's Release frees it before the pool is far into the
// next workload.

// BatchStats counts shared-workload activity process-wide (read by the
// benchmark program).
type BatchStats struct {
	// Groups counts workloads that more than one request of a GridRunsN
	// call named.
	Groups uint64
	// GroupedRuns counts the requests naming such a workload.
	GroupedRuns uint64
}

var batchGroups, batchRuns atomic.Uint64

// BatchStatsSnapshot returns the process-wide shared-workload counters.
func BatchStatsSnapshot() BatchStats {
	return BatchStats{Groups: batchGroups.Load(), GroupedRuns: batchRuns.Load()}
}

// DefaultBatchSize stays for the benchmark program, which passes it to
// GridRuns. GridRuns ignores it: there is no group size to choose.
func DefaultBatchSize() int { return 0 }

// groupKey identifies requests that can share one materialized workload:
// same canonical spec (which encodes per-stream budgets and seeds),
// same request-level budgets, and same fidelity.
type groupKey struct {
	name     string
	insts    uint64
	warmup   uint64
	sampling Sampling
}

// gridPool is GridRunsN's queue of unstarted requests: request indices
// grouped by groupKey, keys in first-appearance order and requests in
// list order within each key. It reads nothing but the requests it was
// built from, and take is safe for concurrent use.
type gridPool struct {
	order []int
	// shared is what the keys with more than one member amount to.
	shared BatchStats
	next   atomic.Int64
}

func newGridPool(reqs []Request) *gridPool {
	var byKey [][]int
	index := make(map[groupKey]int) // key -> index into byKey
	for i := range reqs {
		k := groupKey{name: reqs[i].Workload.Name(), insts: reqs[i].Insts, warmup: reqs[i].Warmup, sampling: reqs[i].Sampling}
		ki, ok := index[k]
		if !ok {
			ki = len(byKey)
			index[k] = ki
			byKey = append(byKey, nil)
		}
		byKey[ki] = append(byKey[ki], i)
	}
	p := &gridPool{order: make([]int, 0, len(reqs))}
	for _, members := range byKey {
		p.order = append(p.order, members...)
		if n := uint64(len(members)); n > 1 {
			p.shared.Groups++
			p.shared.GroupedRuns += n
		}
	}
	return p
}

// take returns the oldest unstarted request, or false when none is left.
func (p *gridPool) take() (int, bool) {
	i := int(p.next.Add(1)) - 1
	if i >= len(p.order) {
		return 0, false
	}
	return p.order[i], true
}

// count adds the pool's shared workloads to the process-wide counters.
func (p *gridPool) count() {
	batchGroups.Add(p.shared.Groups)
	batchRuns.Add(p.shared.GroupedRuns)
}
