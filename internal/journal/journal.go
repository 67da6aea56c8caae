// Package journal makes the coordinator's control plane crash-safe. It
// persists two kinds of state next to the content-addressed result
// store:
//
//   - an append-only journal (WAL) of the runs submitted one by one —
//     enqueue, complete, poison — plus the open and done marks of
//     manifests, compacted into a checkpoint every 512 entries, so the
//     set of jobs the service owes its clients survives a `kill -9`;
//   - durable manifests (see results.Manifest): the canonical member
//     list of every sweep and exploration, stored under its stable,
//     client-visible id. A composite submission's members are never
//     journaled: what it still owes is its open manifest's members that
//     the store lacks.
//
// On startup the daemon replays checkpoint + journal: jobs whose
// results already exist in the store are settled without simulating,
// the rest re-queue, and open manifests re-register under their
// original ids. Recovery is deliberately conservative — a crash between
// a state change and its journal append can only re-queue work that
// already finished, and the content-addressed store turns that replay
// into a cache hit, never a wrong answer.
//
// On-disk layout under the journal directory:
//
//	journal.log       active segment, one JSON record per line
//	checkpoint.json   full live state as of the last compaction
//	manifests/<id>.json
//
// A checkpoint writes the live state via fsynced temp-file + rename and
// then truncates the log, so a crash at any instant leaves either the old
// (checkpoint, log) pair or the new one; replaying the old log over the
// new checkpoint is idempotent because the log is exactly the history
// the checkpoint absorbed. A torn final record — the crash landed
// mid-append — is detected and discarded, costing at most that one
// mutation.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/results"
)

// Op names one journaled pending-pool mutation.
type Op string

const (
	// OpEnqueue records a job entering the pending pool. The full job
	// (key + wire request) rides along so replay can re-queue it.
	OpEnqueue Op = "enqueue"
	// OpComplete records a job turning terminal (done or failed).
	OpComplete Op = "complete"
	// OpPoison records a job parked in the poisoned lot; terminal like
	// OpComplete.
	OpPoison Op = "poison"
	// OpManifestOpen records a sweep/explore manifest going live; the
	// manifest body is in manifests/<id>.json.
	OpManifestOpen Op = "manifest"
	// OpManifestDone records a manifest reaching its terminal state.
	OpManifestDone Op = "manifest_done"
)

// Record is one journal line.
type Record struct {
	Op Op `json:"op"`
	// Key names the job for complete/poison records.
	Key string `json:"key,omitempty"`
	// Job is the full enqueue payload.
	Job *results.Job `json:"job,omitempty"`
	// Manifest is the manifest id for manifest records.
	Manifest string `json:"manifest,omitempty"`
}

// checkpointEvery is the number of appends between automatic
// compactions.
const checkpointEvery = 512

// Options tunes the journal. The zero value is the production setting.
type Options struct {
	// NoSync skips the fsync after each append. Replay stays correct —
	// recovery is conservative — but a power loss may forget the last
	// few records and re-simulate them. Off by default.
	NoSync bool
}

// Stats counts journal activity; the daemon exposes them as
// ringsimd_journal_*_total.
type Stats struct {
	// Entries counts records appended by this process.
	Entries uint64 `json:"entries"`
	// Checkpoints counts compactions (including the one at Open).
	Checkpoints uint64 `json:"checkpoints"`
	// Replayed counts records recovered at Open: checkpointed jobs and
	// manifests plus log records applied over them.
	Replayed uint64 `json:"replayed"`
	// Torn counts truncated trailing records discarded at Open (0 or 1
	// per recovery).
	Torn uint64 `json:"torn"`
}

// State is what recovery reconstructed: the jobs the coordinator owed
// its clients when it died, and the composite submissions still open.
type State struct {
	// Jobs are the live (pending or leased) jobs, in enqueue order.
	Jobs []results.Job
	// OpenManifests are ids of manifests without a terminal record, in
	// open order.
	OpenManifests []string
	// Entries is the number of log records applied over the checkpoint.
	Entries int
	// Torn reports that the log ended in a truncated record (discarded).
	Torn bool
}

// checkpointFile is the on-disk checkpoint encoding.
type checkpointFile struct {
	Jobs      []results.Job `json:"jobs"`
	Manifests []string      `json:"manifests"`
}

// liveJob is one live job and the index of its enqueue in liveOrder.
type liveJob struct {
	job results.Job
	at  int
}

// Journal is the durable control-plane log. All methods are safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu sync.Mutex
	f  *os.File
	// live is the materialized pending pool: every job enqueued and not
	// yet complete/poisoned, with the index in liveOrder of the enqueue
	// that made it live. liveOrder is enqueue order; an entry that is not
	// its key's live index is stale, and every checkpoint drops the stale
	// entries, so the slice stays within checkpointEvery of the live set.
	live      map[string]liveJob
	liveOrder []string
	// open maps each manifest between OpManifestOpen and OpManifestDone
	// to its index in openOrder, kept like liveOrder.
	open      map[string]int
	openOrder []string

	sinceCheckpoint int
	replay          State

	entries     atomic.Uint64
	checkpoints atomic.Uint64
	replayed    atomic.Uint64
	torn        atomic.Uint64
}

func (j *Journal) logPath() string        { return filepath.Join(j.dir, "journal.log") }
func (j *Journal) checkpointPath() string { return filepath.Join(j.dir, "checkpoint.json") }
func (j *Journal) manifestDir() string    { return filepath.Join(j.dir, "manifests") }

// Open loads (creating if needed) the journal at dir, replays
// checkpoint + log into the recovered State, and compacts so the new
// process starts from a fresh checkpoint and an empty log. The caller
// reads the recovered state via ReplayState.
func Open(dir string, opts Options) (*Journal, error) {
	j := &Journal{
		dir:  dir,
		opts: opts,
		live: make(map[string]liveJob),
		open: make(map[string]int),
	}
	if err := os.MkdirAll(j.manifestDir(), 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}

	// 1. Checkpoint: the compacted prefix of history.
	recovered := 0
	if b, err := os.ReadFile(j.checkpointPath()); err == nil {
		var cp checkpointFile
		// An unreadable checkpoint (torn write before the rename
		// discipline existed, disk trouble) is skipped, not fatal: the
		// log may still recover part of the state, and everything else
		// re-simulates.
		if json.Unmarshal(b, &cp) == nil {
			for _, jb := range cp.Jobs {
				jb := jb
				j.applyLocked(Record{Op: OpEnqueue, Job: &jb})
				recovered++
			}
			for _, id := range cp.Manifests {
				j.applyLocked(Record{Op: OpManifestOpen, Manifest: id})
				recovered++
			}
		}
	}

	// 2. Log: every mutation since that checkpoint, tolerating a torn
	// final record.
	if f, err := os.Open(j.logPath()); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				// A crash mid-append leaves exactly one undecodable
				// trailing line; whatever follows it (there should be
				// nothing) is unrecoverable too.
				j.replay.Torn = true
				j.torn.Add(1)
				break
			}
			j.applyLocked(rec)
			j.replay.Entries++
			recovered++
		}
		f.Close()
	}

	j.replay.Jobs = j.liveJobsLocked()
	j.replay.OpenManifests = j.openManifestsLocked()
	j.replayed.Store(uint64(recovered))

	// 3. Compact immediately: the recovered state becomes the new
	// checkpoint and the log restarts empty (also clearing any torn
	// tail).
	if err := j.checkpointLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// ReplayState returns the state recovered at Open.
func (j *Journal) ReplayState() State { return j.replay }

// Stats snapshots the activity counters.
func (j *Journal) Stats() Stats {
	return Stats{
		Entries:     j.entries.Load(),
		Checkpoints: j.checkpoints.Load(),
		Replayed:    j.replayed.Load(),
		Torn:        j.torn.Load(),
	}
}

// Append records one mutation: it is applied to the materialized state,
// written to the log, synced (unless NoSync), and every checkpointEvery
// appends triggers an automatic checkpoint. A complete or poison for a
// key that is not live changes no state, so it writes nothing.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if rec.Op == OpComplete || rec.Op == OpPoison {
		if _, ok := j.live[rec.Key]; !ok {
			return nil
		}
	}
	j.applyLocked(rec)
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	j.entries.Add(1)
	j.sinceCheckpoint++
	if j.sinceCheckpoint >= checkpointEvery {
		return j.checkpointLocked()
	}
	return nil
}

// Close checkpoints one last time and releases the log file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.checkpointLocked()
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}

// applyLocked folds one record into the materialized state. A key
// enqueued while live keeps its place; one enqueued again after it
// completed takes its new place. Idempotent: re-applying history (a crash
// between checkpoint rename and log truncation) converges to the same
// state. Callers must hold j.mu.
func (j *Journal) applyLocked(rec Record) {
	switch rec.Op {
	case OpEnqueue:
		if rec.Job != nil && rec.Job.Key != "" {
			lj, ok := j.live[rec.Job.Key]
			if !ok {
				lj.at = len(j.liveOrder)
				j.liveOrder = append(j.liveOrder, rec.Job.Key)
			}
			lj.job = *rec.Job
			j.live[rec.Job.Key] = lj
		}
	case OpComplete, OpPoison:
		delete(j.live, rec.Key)
	case OpManifestOpen:
		if _, ok := j.open[rec.Manifest]; rec.Manifest != "" && !ok {
			j.open[rec.Manifest] = len(j.openOrder)
			j.openOrder = append(j.openOrder, rec.Manifest)
		}
	case OpManifestDone:
		delete(j.open, rec.Manifest)
	}
}

// liveJobsLocked lists live jobs in enqueue order. Callers must hold
// j.mu.
func (j *Journal) liveJobsLocked() []results.Job {
	out := make([]results.Job, 0, len(j.live))
	for i, key := range j.liveOrder {
		if lj, ok := j.live[key]; ok && lj.at == i {
			out = append(out, lj.job)
		}
	}
	return out
}

// openManifestsLocked lists open manifest ids in open order. Callers
// must hold j.mu.
func (j *Journal) openManifestsLocked() []string {
	out := make([]string, 0, len(j.open))
	for i, id := range j.openOrder {
		if at, ok := j.open[id]; ok && at == i {
			out = append(out, id)
		}
	}
	return out
}

// compactOrderLocked drops the stale entries of liveOrder and openOrder,
// leaving exactly the live set and the open set in order. Callers must
// hold j.mu.
func (j *Journal) compactOrderLocked() {
	order := j.liveOrder[:0]
	for i, key := range j.liveOrder {
		if lj, ok := j.live[key]; ok && lj.at == i {
			lj.at = len(order)
			j.live[key] = lj
			order = append(order, key)
		}
	}
	clear(j.liveOrder[len(order):])
	j.liveOrder = order
	ids := j.openOrder[:0]
	for i, id := range j.openOrder {
		if at, ok := j.open[id]; ok && at == i {
			j.open[id] = len(ids)
			ids = append(ids, id)
		}
	}
	clear(j.openOrder[len(ids):])
	j.openOrder = ids
}

// checkpointLocked writes the live state to checkpoint.json (through
// results.WriteFileSync, so readers never see a torn checkpoint) and then
// truncates the log. Order matters: the new checkpoint must be durable
// before the history it absorbs is dropped. Callers must hold j.mu.
func (j *Journal) checkpointLocked() error {
	j.compactOrderLocked()
	cp := checkpointFile{
		Jobs:      j.liveJobsLocked(),
		Manifests: j.openManifestsLocked(),
	}
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: encode checkpoint: %w", err)
	}
	if err := results.WriteFileSync(j.checkpointPath(), append(b, '\n')); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	// The checkpoint is durable; the absorbed history can go. Reopening
	// with O_TRUNC also rotates a file handle lost to a previous error.
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.logPath(), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		j.f = nil
		return fmt.Errorf("journal: rotate log: %w", err)
	}
	j.f = f
	j.sinceCheckpoint = 0
	j.checkpoints.Add(1)
	return nil
}

// --- manifests ---

func (j *Journal) manifestPath(id string) (string, error) {
	if id == "" || filepath.Base(id) != id {
		return "", fmt.Errorf("journal: malformed manifest id %q", id)
	}
	return filepath.Join(j.manifestDir(), id+".json"), nil
}

// PutManifest durably stores a manifest under its id (through
// results.WriteFileSync). The caller separately journals OpManifestOpen
// so replay knows the manifest is live; the fsyncs keep a host crash from
// leaving that record naming a manifest whose body or name was lost.
func (j *Journal) PutManifest(id string, m results.Manifest) error {
	p, err := j.manifestPath(id)
	if err != nil {
		return err
	}
	// Compact on purpose: MarshalIndent would re-indent the RawMessage
	// payloads (Explore, Final), breaking byte-exact round trips.
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("journal: encode manifest %s: %w", id, err)
	}
	if err := results.WriteFileSync(p, append(b, '\n')); err != nil {
		return fmt.Errorf("journal: put manifest %s: %w", id, err)
	}
	return nil
}

// GetManifest loads a manifest by id; ok=false when it does not exist.
// A corrupt manifest reads as absent (the submission it described can
// always be resubmitted; its runs are content-addressed either way).
func (j *Journal) GetManifest(id string) (results.Manifest, bool, error) {
	p, err := j.manifestPath(id)
	if err != nil {
		return results.Manifest{}, false, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return results.Manifest{}, false, nil
	}
	if err != nil {
		return results.Manifest{}, false, fmt.Errorf("journal: read manifest %s: %w", id, err)
	}
	var m results.Manifest
	if json.Unmarshal(b, &m) != nil {
		return results.Manifest{}, false, nil
	}
	return m, true, nil
}

// MarkManifestDone records a manifest's terminal state: the stored file
// gains Done (plus an optional Final snapshot, e.g. an exploration's
// last view) and an OpManifestDone journal record stops replay from
// reopening it.
func (j *Journal) MarkManifestDone(id string, final json.RawMessage) error {
	m, ok, err := j.GetManifest(id)
	if err != nil {
		return err
	}
	if ok {
		m.Done = true
		if final != nil {
			m.Final = final
		}
		if err := j.PutManifest(id, m); err != nil {
			return err
		}
	}
	return j.Append(Record{Op: OpManifestDone, Manifest: id})
}
