package results

import "fmt"

// Job is one unit of distributable work: a pending run's wire-form
// request paired with its content key. The key is redundant with the
// request — it is recomputable — and that redundancy is the point: both
// ends of the fleet protocol verify the pair, so a coordinator and a
// worker whose canonical encodings have drifted apart (mismatched schema
// versions, a stale binary) fail loudly at the wire instead of silently
// caching results under the wrong identity.
type Job struct {
	Key     string  `json:"key"`
	Request Request `json:"request"`
}

// NewJob pairs a request with its content key.
func NewJob(r Request) (Job, error) {
	key, err := r.Key()
	if err != nil {
		return Job{}, err
	}
	return Job{Key: key, Request: r}, nil
}

// Verify recomputes the request's content key and checks it against the
// job's claimed key.
func (j Job) Verify() error {
	key, err := j.Request.Key()
	if err != nil {
		return err
	}
	if key != j.Key {
		return fmt.Errorf("results: job key %s does not match its request (computed %s): mixed schema versions?", j.Key, key)
	}
	return nil
}

// JobBatch is the lease payload: the batch of runs a worker pulls from a
// coordinator in one round trip.
type JobBatch struct {
	Jobs []Job `json:"jobs"`
}

// Verify checks every member's key against its request's recomputed
// content hash.
func (b JobBatch) Verify() error {
	for i, j := range b.Jobs {
		if err := j.Verify(); err != nil {
			return fmt.Errorf("results: job batch [%d]: %w", i, err)
		}
	}
	return nil
}

// ResultBatch is the completion payload: the records a worker returns to
// its coordinator in one round trip.
type ResultBatch struct {
	Results []Result `json:"results"`
}
