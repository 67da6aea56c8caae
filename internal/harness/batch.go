package harness

import (
	"runtime"
	"sync/atomic"
)

// Grouping is scheduling affinity, nothing more: requests that share a
// workload (the common shape of a sweep — every configuration visits
// every workload) are handed to one GridRuns worker back to back, so the
// first member's TraceCache.Stream call materializes each stream and the
// rest replay it, instead of several workers racing to the same entry
// lock. Members run one at a time through Execute.

// BatchStats counts affinity-group activity process-wide (exported by the
// ringsimd /metrics endpoint).
type BatchStats struct {
	// Groups counts executed multi-member groups.
	Groups uint64
	// GroupedRuns counts runs executed as members of a group.
	GroupedRuns uint64
	// AmortizedDecodes counts stream reads served by a group mate's
	// materialization: (members−1) × streams per group.
	AmortizedDecodes uint64
}

var batchGroups, batchRuns, batchAmortized atomic.Uint64

// BatchStatsSnapshot returns the process-wide affinity-group counters.
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
// same request-level budgets, and same fidelity.
type groupKey struct {
	name     string
	insts    uint64
	warmup   uint64
	sampling Sampling
}

// requestGroups partitions request indices into groups of at most
// maxGroup members sharing a groupKey, in first-appearance order of keys
// and request order within each key. A key with more than maxGroup
// requests gets consecutive groups, so the workers finish one workload
// before they start on the next and its trace can be freed.
func requestGroups(reqs []Request, maxGroup int) [][]int {
	if maxGroup < 1 {
		maxGroup = 1
	}
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
	var groups [][]int
	for _, members := range byKey {
		for len(members) > maxGroup {
			groups = append(groups, members[:maxGroup:maxGroup])
			members = members[maxGroup:]
		}
		groups = append(groups, members)
	}
	return groups
}

// executeGroup runs one group's members back to back through Execute,
// writing each Run into results at its original request index and letting
// go of GridRunsN's hold on the member's traces.
func executeGroup(reqs []Request, idxs []int, results []Run) {
	if n := uint64(len(idxs)); n > 1 {
		batchGroups.Add(1)
		batchRuns.Add(n)
		batchAmortized.Add((n - 1) * uint64(len(reqs[idxs[0]].Workload.Streams)))
	}
	for _, ri := range idxs {
		results[ri] = Execute(reqs[ri])
		DefaultTraceCache.Release(reqs[ri].Workload)
	}
}
