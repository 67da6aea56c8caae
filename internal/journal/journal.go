// Package journal makes the coordinator's control plane crash-safe. It
// keeps the state the service owes its clients next to the
// content-addressed result store, and the directory a file sits in says
// what state it records:
//
//	journal.log          the runs submitted one by one: an enqueue,
//	                     complete or poison record a line
//	manifests/<id>.json  an open sweep or exploration (results.Manifest)
//	done/<id>.json       a finished sweep's or exploration's final reply
//
// A sweep's or exploration's members are never journaled: what it still
// owes is its open manifest's members that the store lacks. Retiring it
// writes its reply to done/ and then removes its manifest; a crash
// between the two leaves both, and Open removes the manifest, since the
// client may have seen the reply. done/ keeps the newest maxDone replies;
// an older one is pruned, and its id reads like any unknown one.
//
// On startup the daemon replays the log and lists manifests/: jobs whose
// results already exist in the store are settled without simulating, the
// rest re-queue, and open manifests re-register under their original ids.
// Recovery is deliberately conservative — a crash between a state change
// and its journal append can only re-queue work that already finished,
// and the content-addressed store turns that replay into a cache hit,
// never a wrong answer.
//
// Every 512 appends, and at Open and Close, the log is compacted: it is
// rewritten in place, through results.WriteFileSync, to one enqueue per
// live job, so a crash leaves either the old log or the new one, and both
// replay to the same jobs. A torn final record — the crash landed
// mid-append — is detected and discarded, costing at most that one
// mutation.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
)

// Record is one journal line. Replay ignores a line whose op it does not
// know, such as the lease and manifest lines older coordinators wrote.
type Record struct {
	Op Op `json:"op"`
	// Key names the job for complete/poison records.
	Key string `json:"key,omitempty"`
	// Job is the full enqueue payload.
	Job *results.Job `json:"job,omitempty"`
}

// compactEvery is the number of appends between automatic compactions.
const compactEvery = 512

// maxDone bounds done/ to the newest stored replies, as many as the
// server's registry of submissions holds (its maxSubmissions).
const maxDone = 1024

// The journal directory's entries.
const (
	logFile        = "journal.log"
	manifestDir    = "manifests"
	doneDir        = "done"
	checkpointFile = "checkpoint.json" // written by older coordinators only
)

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
	// Checkpoints counts compactions of the log (including the one at
	// Open).
	Checkpoints uint64 `json:"checkpoints"`
	// Replayed counts what Open recovered: the log records applied plus
	// the open manifests listed.
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
	// OpenManifests are the ids in manifests/, in name order.
	OpenManifests []string
	// Entries is the number of log records replayed.
	Entries int
	// Torn reports that the log ended in a truncated record (discarded).
	Torn bool
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
	// its key's live index is stale, and every compaction drops the stale
	// entries, so the slice stays within compactEvery of the live set.
	live      map[string]liveJob
	liveOrder []string

	sinceCompact int
	replay       State

	// done lists the ids of the replies in done/, oldest first; at most
	// maxDone.
	done []string

	entries     atomic.Uint64
	checkpoints atomic.Uint64
}

// Open loads (creating if needed) the journal at dir: it replays the log,
// lists the open manifests, and compacts, so the new process starts from
// a log of live jobs only. The caller reads the recovered state via
// ReplayState.
//
// A directory that holds checkpoint.json was written by an older
// coordinator, which kept the compacted jobs there and marked a finished
// manifest done in place. Open upgrades it in an order a crash can
// interrupt at any point: the checkpoint's jobs are applied under the
// log, every done manifest's reply moves to done/, and the checkpoint is
// removed once the compacted log is durable.
func Open(dir string, opts Options) (*Journal, error) {
	j := &Journal{dir: dir, opts: opts, live: make(map[string]liveJob)}
	for _, sub := range []string{manifestDir, doneDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("journal: open %s: %w", dir, err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	legacy := err == nil
	var cp struct {
		Jobs []results.Job `json:"jobs"`
	}
	// An unreadable checkpoint is skipped, not fatal: the log may still
	// recover part of the state, and everything else re-simulates.
	if legacy && json.Unmarshal(b, &cp) == nil {
		for i := range cp.Jobs {
			j.applyLocked(Record{Op: OpEnqueue, Job: &cp.Jobs[i]})
		}
	}
	j.replayLog()
	j.replay.Jobs = j.liveJobsLocked()
	if err := j.listDone(); err != nil {
		return nil, err
	}

	entries, err := os.ReadDir(filepath.Join(dir, manifestDir))
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue // a temp file a crash left behind
		}
		if final, done := j.retired(id, legacy); !done {
			j.replay.OpenManifests = append(j.replay.OpenManifests, id)
		} else if err := j.RetireManifest(id, final); err != nil {
			return nil, err
		}
	}

	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	if legacy {
		if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
			return nil, fmt.Errorf("journal: remove checkpoint: %w", err)
		}
	}
	return j, nil
}

// replayLog applies every record of the log, tolerating a torn final
// record. Called by Open only.
func (j *Journal) replayLog() {
	f, err := os.Open(filepath.Join(j.dir, logFile))
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A crash mid-append leaves exactly one undecodable trailing
			// line; whatever follows it (there should be nothing) is
			// unrecoverable too.
			j.replay.Torn = true
			return
		}
		j.applyLocked(rec)
		j.replay.Entries++
	}
}

// listDone loads the ids in done/, oldest modification first, and prunes
// all but the newest maxDone. Called by Open only.
func (j *Journal) listDone() error {
	entries, err := os.ReadDir(filepath.Join(j.dir, doneDir))
	if err != nil {
		return fmt.Errorf("journal: open %s: %w", j.dir, err)
	}
	var replies []os.FileInfo
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && strings.HasSuffix(e.Name(), ".json") {
			replies = append(replies, info)
		}
	}
	slices.SortStableFunc(replies, func(a, b os.FileInfo) int { return a.ModTime().Compare(b.ModTime()) })
	for _, r := range replies {
		j.done = append(j.done, strings.TrimSuffix(r.Name(), ".json"))
	}
	j.pruneDone()
	return nil
}

// pruneDone removes the oldest replies past maxDone. One that cannot be
// removed is left for the next Open to prune. Callers must hold j.mu, or
// be Open.
func (j *Journal) pruneDone() {
	for ; len(j.done) > maxDone; j.done = j.done[1:] {
		os.Remove(filepath.Join(j.dir, doneDir, j.done[0]+".json"))
	}
}

// retired reports whether the submission of manifest id has finished,
// and the reply RetireManifest has yet to store for it. Its reply in done/
// means the crash came after storing it and before removing the
// manifest; with legacy set, a manifest an older coordinator marked done
// in place ("done": true) carries its reply in "final". Called by Open
// only.
func (j *Journal) retired(id string, legacy bool) (final []byte, done bool) {
	if _, err := os.Stat(filepath.Join(j.dir, doneDir, id+".json")); err == nil {
		return nil, true
	}
	if !legacy {
		return nil, false
	}
	var old struct {
		Done  bool            `json:"done"`
		Final json.RawMessage `json:"final"`
	}
	b, err := os.ReadFile(filepath.Join(j.dir, manifestDir, id+".json"))
	done = err == nil && json.Unmarshal(b, &old) == nil && old.Done
	return old.Final, done
}

// ReplayState returns the state recovered at Open.
func (j *Journal) ReplayState() State { return j.replay }

// Stats snapshots the activity counters.
func (j *Journal) Stats() Stats {
	st := Stats{
		Entries:     j.entries.Load(),
		Checkpoints: j.checkpoints.Load(),
		Replayed:    uint64(j.replay.Entries + len(j.replay.OpenManifests)),
	}
	if j.replay.Torn {
		st.Torn = 1
	}
	return st
}

// Append records one mutation: it is applied to the materialized state,
// written to the log, synced (unless NoSync), and every compactEvery
// appends triggers an automatic compaction. A complete or poison for a
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
	j.sinceCompact++
	if j.sinceCompact >= compactEvery {
		return j.compactLocked()
	}
	return nil
}

// Close compacts one last time and releases the log file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.compactLocked()
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
// completed takes its new place. Callers must hold j.mu.
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

// compactLocked drops the stale entries of liveOrder and rewrites the log
// as one enqueue per live job, in order, through results.WriteFileSync:
// the rename makes the compacted log replace the old one whole. Appends
// then go to the new file. Callers must hold j.mu.
func (j *Journal) compactLocked() error {
	var b []byte
	order := j.liveOrder[:0]
	for i, key := range j.liveOrder {
		lj, ok := j.live[key]
		if !ok || lj.at != i {
			continue
		}
		line, err := json.Marshal(Record{Op: OpEnqueue, Job: &lj.job})
		if err != nil {
			return fmt.Errorf("journal: encode record: %w", err)
		}
		b = append(append(b, line...), '\n')
		lj.at = len(order)
		j.live[key] = lj
		order = append(order, key)
	}
	clear(j.liveOrder[len(order):])
	j.liveOrder = order
	p := filepath.Join(j.dir, logFile)
	if err := results.WriteFileSync(p, b); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	var err error
	if j.f, err = os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0); err != nil {
		return fmt.Errorf("journal: reopen log: %w", err)
	}
	j.sinceCompact = 0
	j.checkpoints.Add(1)
	return nil
}

// --- manifests ---

// path names id's file under sub (manifests/ or done/), refusing an id
// that is not a plain file name.
func (j *Journal) path(sub, id string) (string, error) {
	if id == "" || filepath.Base(id) != id {
		return "", fmt.Errorf("journal: malformed manifest id %q", id)
	}
	return filepath.Join(j.dir, sub, id+".json"), nil
}

// PutManifest durably stores an open manifest under its id (through
// results.WriteFileSync), so a host crash cannot lose a manifest whose
// id the client was given.
func (j *Journal) PutManifest(id string, m results.Manifest) error {
	p, err := j.path(manifestDir, id)
	if err != nil {
		return err
	}
	// Compact on purpose: MarshalIndent would re-indent the RawMessage
	// payload (Explore), breaking byte-exact round trips.
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("journal: encode manifest %s: %w", id, err)
	}
	if err := results.WriteFileSync(p, append(b, '\n')); err != nil {
		return fmt.Errorf("journal: put manifest %s: %w", id, err)
	}
	return nil
}

// GetManifest loads an open manifest by id; ok=false when it does not
// exist. An unreadable or corrupt manifest reads as absent (the
// submission it described can always be resubmitted; its runs are
// content-addressed either way).
func (j *Journal) GetManifest(id string) (m results.Manifest, ok bool) {
	p, err := j.path(manifestDir, id)
	if err != nil {
		return m, false
	}
	b, err := os.ReadFile(p)
	if err != nil || json.Unmarshal(b, &m) != nil {
		return results.Manifest{}, false
	}
	return m, true
}

// RetireManifest ends a submission: its final reply, when it has one, is
// written to done/<id>.json through results.WriteFileSync, pruning the
// oldest reply past maxDone, and then its open manifest is removed, so
// the next Open no longer lists it.
func (j *Journal) RetireManifest(id string, final []byte) error {
	p, err := j.path(manifestDir, id)
	if err != nil {
		return err
	}
	if len(final) > 0 {
		if err := results.WriteFileSync(filepath.Join(j.dir, doneDir, id+".json"), final); err != nil {
			return fmt.Errorf("journal: retire manifest %s: %w", id, err)
		}
		j.mu.Lock()
		j.done = append(slices.DeleteFunc(j.done, func(d string) bool { return d == id }), id)
		j.pruneDone()
		j.mu.Unlock()
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: retire manifest %s: %w", id, err)
	}
	return nil
}

// Final returns the reply a retired submission stored, or nil when id has
// none or it cannot be read.
func (j *Journal) Final(id string) []byte {
	p, err := j.path(doneDir, id)
	if err != nil {
		return nil
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return nil
	}
	return b
}
