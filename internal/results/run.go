package results

import "repro/internal/harness"

// Outcome is one request's record as Run settled it.
type Outcome struct {
	Result
	// Hit reports that this call did not simulate the record: it came from
	// the store, or from an earlier request of the same call with the same
	// key.
	Hit bool
	// PutErr is the store's refusal to keep this freshly simulated record.
	// The record still stands; only a later call's hit is lost.
	PutErr error
}

// Run settles a request list through a content-addressed store and
// returns one outcome per request, in request order. It is the one way
// from requests to records outside the daemon:
//
//   - every request is keyed; a stored record that has not failed is a
//     hit, and a store Get error counts as a miss;
//   - a key repeated within the call is simulated once, and its later
//     occurrences are hits carrying the same record;
//   - the misses run through one harness.GridRunsN call on workers
//     workers and become records through FromRun;
//   - successful records are written back, and a Put error lands on its
//     own outcome without stopping the batch.
//
// A failed record is returned but never stored or served: an error is a
// property of the attempt, not of the request. A nil store means no
// caching. Across a sweep of multi-programmed mixes every single-stream
// baseline is one key, so it simulates once however many mixes name it.
func Run(store Store, reqs []harness.Request, workers int) []Outcome {
	out := make([]Outcome, len(reqs))
	keys := make([]string, len(reqs))
	first := make(map[string]int, len(reqs))
	var miss []int
	var misses []harness.Request
	for i, req := range reqs {
		key, err := NewRequest(req).Key()
		if err != nil {
			out[i].Result = failedRecord(req, err)
			continue
		}
		keys[i] = key
		if _, seen := first[key]; seen {
			continue
		}
		first[key] = i
		if store != nil {
			if res, ok, err := store.Get(key); err == nil && ok && !res.Failed() {
				out[i] = Outcome{Result: res, Hit: true}
				continue
			}
		}
		miss = append(miss, i)
		misses = append(misses, req)
	}
	if len(misses) > 0 {
		runs := harness.GridRunsN(misses, workers)
		for k, i := range miss {
			res, err := FromRun(reqs[i], runs[k])
			if err != nil {
				res = failedRecord(reqs[i], err)
			}
			out[i].Result = res
			if store != nil && !res.Failed() {
				out[i].PutErr = store.Put(keys[i], res)
			}
		}
	}
	for i, key := range keys {
		if j := first[key]; key != "" && j != i {
			out[i] = Outcome{Result: out[j].Result, Hit: true}
		}
	}
	return out
}

// failedRecord is the record of a request that could not be keyed.
func failedRecord(req harness.Request, err error) Result {
	return Result{Config: req.Config.Name, Program: req.Workload.Name(), Err: err.Error()}
}
