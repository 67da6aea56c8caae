package server

// Durable control plane: with Options.Journal set, the pending-pool
// mutations of direct runs are journaled, and every composite submission
// (sweep, exploration) is a file in the journal directory: an open
// manifest from submit until it retires, then its final reply under
// done/. A submission's members are never journaled: its manifest lists
// them, and the store says which are done. This file holds the three
// pieces that make the service crash-safe:
//
//   - startup replay (recoverFromJournal): live jobs are fed again — the
//     ones whose results are already in the store settle as cache hits,
//     the rest re-queue — and open manifests re-register their
//     sweeps/explorations under the original client-visible ids, owing
//     the members the store lacks;
//   - re-attach fallbacks: GETs for ids the in-memory registries forgot
//     are answered from the store (runs) or a stored final reply (sweeps,
//     explorations) instead of 404;
//   - the terminal "lost" state: a run id that is neither registered
//     nor in the store is reported lost — a clear, terminal error —
//     instead of leaving the client polling a phantom forever.
//
// Journal appends happen outside s.mu (they are disk writes) and
// strictly after the in-memory mutation they record. A crash in that
// window loses only the append: replay then re-queues work that already
// finished, and the content-addressed store settles it without
// re-simulating. Recovery can over-deliver, never corrupt.

import (
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/dse"
	"repro/internal/journal"
	"repro/internal/results"
)

// isRunKey reports whether id is shaped like a run content key (64
// lowercase hex digits). Garbage ids stay 404; only plausible keys get
// store fallbacks and the lost state.
func isRunKey(id string) bool {
	return len(id) == 64 && strings.Trim(id, "0123456789abcdef") == ""
}

// --- journal hooks ---
//
// All hooks are no-ops without a journal and after Terminate (a real
// crash stops journaling mid-air; the test stand-in should too). Append
// errors are deliberately dropped: the journal is a durability
// improvement, not a correctness dependency, and refusing service
// because the WAL disk hiccuped would be strictly worse than running
// memory-only.

func (s *Server) journaling() bool {
	return s.opts.Journal != nil && !s.killed.Load()
}

// journalRun records a direct run entering the pending pool (enqueue)
// or turning terminal (complete, poison); the journal writes nothing for
// a settled key that is not a live direct run.
func (s *Server) journalRun(rec journal.Record) {
	if s.journaling() {
		_ = s.opts.Journal.Append(rec)
	}
}

// --- startup replay ---

// recoverFromJournal rebuilds coordinator state from the journal's
// recovered State: live jobs (direct runs) re-register and go back
// through feed — which settles the ones whose results are in the store
// and re-queues the rest — open sweep manifests re-register under their
// original ids, open exploration manifests re-drive their searches (every
// already-evaluated point comes back as a cache hit). Runs during New,
// before the server accepts traffic.
func (s *Server) recoverFromJournal() {
	j := s.opts.Journal
	state := j.ReplayState()

	pending := make([]results.Job, 0, len(state.Jobs))
	for _, jb := range state.Jobs {
		if err := jb.Verify(); err != nil {
			// A job whose key no longer matches its request was written
			// by a different schema version; its submitters are gone
			// with the old process. Retire it so replay stops seeing it.
			_ = j.Append(journal.Record{Op: journal.OpComplete, Key: jb.Key})
			continue
		}
		pending = append(pending, jb)
	}
	s.mu.Lock()
	for _, jb := range pending {
		s.newRunLocked(jb.Key, jb.Request.Harness())
	}
	s.feedLocked(pending)
	s.mu.Unlock()

	for _, id := range state.OpenManifests {
		if m, ok := j.GetManifest(id); !ok || m.Verify() != nil || !s.recoverSubmission(id, m) {
			// Nothing to rebuild: stop replaying it. (Member runs, if any,
			// recovered above.)
			_ = j.RetireManifest(id, nil)
		}
	}
}

// recoverSubmission re-opens an unfinished sweep or exploration under its
// original id, and reports whether it could. A sweep's members not already
// registered (as replayed direct runs) go back through feed: settled from
// the store, the rest re-queued — the work the sweep still owes. It has no
// hits: nothing was finished before this process started, and a member
// the recovery feeder settles from the store carries the cached mark on
// its own run state. An exploration is deterministic given its request,
// so replay re-drives it, and every candidate already evaluated is a store
// hit. One whose request no longer reads or resolves (e.g. a renamed
// config profile across versions) can never finish.
func (s *Server) recoverSubmission(id string, m results.Manifest) bool {
	if m.Kind == results.ManifestKindSweep {
		_, _ = s.open(nil, id, func(sw *submission) {
			var pending []results.Job
			for _, jb := range m.Jobs {
				st, ok := s.runs[jb.Key]
				if !ok {
					st = s.newRunLocked(jb.Key, jb.Request.Harness())
					pending = append(pending, jb)
				}
				st.refs++
			}
			sw.keys = m.Keys()
			s.feedLocked(pending)
		}, s.viewSweepLocked, s.watchSweep)
		return true
	}
	var er dse.Request
	if json.Unmarshal(m.Explore, &er) != nil {
		return false
	}
	opts, err := exploreOptions(&er)
	if err == nil {
		_, _ = s.openExplore(nil, id, opts)
	}
	return err == nil
}

// --- re-attach fallbacks ---

// lostRunError explains the terminal lost state to a polling client.
const lostRunError = "run is not registered on this coordinator and its result is not in the store: " +
	"the job was lost (pre-journal restart or registry eviction) — resubmit it"

// runFallback answers a GET for a run id the registry does not hold.
// Plausible content keys are answered from the store (done or failed,
// cached) or reported terminally lost; anything else stays a 404.
func (s *Server) runFallback(w http.ResponseWriter, id string) bool {
	if !isRunKey(id) {
		return false
	}
	v := runView{ID: id, Status: statusLost, Error: lostRunError}
	if res, hit, err := s.opts.Store.Get(id); err == nil && hit {
		v = runView{ID: id, Status: statusDone, Cached: true, record: encodeRecord(res)}
		if res.Failed() {
			v.Status = statusFailed
		}
	}
	writeBody(w, http.StatusOK, appendRunView(nil, v))
	return true
}

// serveManifestFinal answers a GET for a sweep or exploration id the
// registry does not hold with the final reply it stored when it retired,
// and reports whether it did. An unfinished submission is always
// registered — recovery re-registers every open manifest, and eviction
// spares what is unfinished — so only a retired one needs this. The
// caller has checked that id is of the kind asked for.
func (s *Server) serveManifestFinal(w http.ResponseWriter, id string) bool {
	if s.opts.Journal == nil {
		return false
	}
	final := s.opts.Journal.Final(id)
	var v struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(final, &v) != nil || v.ID != id {
		return false
	}
	writeBody(w, http.StatusOK, final)
	return true
}

// --- crash stand-in ---

// Terminate abandons the server without draining: submissions stop, the
// queue is discarded unexecuted, and no further journal records are
// written. It is the in-process stand-in for `kill -9` used by the
// crash-recovery tests — after Terminate, a new Server over the same
// journal and store must recover everything Close would have drained.
func (s *Server) Terminate() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// killed mutes every journal hook, so the on-disk state freezes as of
	// this instant — exactly what a real crash leaves behind. The local
	// workers stop with it: one mid-run finishes its simulation, but its
	// completion never lands, and nothing pending is leased again.
	s.killed.Store(true)
	s.stopWorkers()
	s.shutdown()
}
