package server

// Durable control plane: with Options.Journal set, every pending-pool
// mutation and every composite submission (sweep, exploration) is
// persisted through internal/journal next to the content-addressed
// store. This file holds the three pieces that make the service
// crash-safe:
//
//   - startup replay (recoverFromJournal): live jobs are fed again — the
//     ones whose results are already in the store settle as cache hits,
//     the rest re-queue — and open manifests re-register their
//     sweeps/explorations under the original client-visible ids;
//   - re-attach fallbacks: GETs for ids the in-memory registries forgot
//     are answered from manifest + store instead of 404;
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

	"repro/internal/journal"
	"repro/internal/results"
)

// localWorkerLabel labels local-pool completions in the per-worker
// latency histogram.
const localWorkerLabel = "local"

// isRunKey reports whether id is shaped like a run content key (64
// lowercase hex digits). Garbage ids stay 404; only plausible keys get
// store fallbacks and the lost state.
func isRunKey(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
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

// journalEnqueue records a fresh registration entering the pending pool.
func (s *Server) journalEnqueue(key string, wire results.Request) {
	if !s.journaling() {
		return
	}
	jb := results.Job{Key: key, Request: wire}
	_ = s.opts.Journal.Append(journal.Record{Op: journal.OpEnqueue, Job: &jb})
}

// journalComplete records a run turning terminal (done or failed).
func (s *Server) journalComplete(key string) {
	if !s.journaling() {
		return
	}
	_ = s.opts.Journal.Append(journal.Record{Op: journal.OpComplete, Key: key})
}

// journalPoison records a job parked in the poisoned lot.
func (s *Server) journalPoison(key string) {
	if !s.journaling() {
		return
	}
	_ = s.opts.Journal.Append(journal.Record{Op: journal.OpPoison, Key: key})
}

// journalManifestOpen persists a manifest and records it live.
func (s *Server) journalManifestOpen(id string, m results.Manifest) {
	if !s.journaling() {
		return
	}
	if err := s.opts.Journal.PutManifest(id, m); err != nil {
		return
	}
	_ = s.opts.Journal.Append(journal.Record{Op: journal.OpManifestOpen, Manifest: id})
}

// journalSweepDone records a sweep's rendered terminal view on its
// manifest.
func (s *Server) journalSweepDone(id string, final []byte) {
	if !s.journaling() {
		return
	}
	_ = s.opts.Journal.MarkManifestDone(id, final)
}

// journalExploreDone records an exploration's terminal view on its
// manifest.
func (s *Server) journalExploreDone(v exploreView) {
	if !s.journaling() {
		return
	}
	final, err := json.Marshal(v)
	if err != nil {
		final = nil
	}
	_ = s.opts.Journal.MarkManifestDone(v.ID, final)
}

// --- startup replay ---

// recoverFromJournal rebuilds coordinator state from the journal's
// recovered State: live jobs re-register and go back through feed — which
// settles the ones whose results are in the store and re-queues the rest —
// open sweep manifests re-register under their original ids, open
// exploration manifests re-drive their searches (every already-evaluated
// point comes back as a cache hit). Runs during New, before the server
// accepts traffic.
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
	s.feedLocked(pending, true)
	s.mu.Unlock()

	for _, id := range state.OpenManifests {
		m, ok, err := j.GetManifest(id)
		if err != nil || !ok || m.Verify() != nil {
			// No readable manifest body: nothing to rebuild, stop
			// replaying it. (Member runs, if any, recovered above.)
			_ = j.Append(journal.Record{Op: journal.OpManifestDone, Manifest: id})
			continue
		}
		switch m.Kind {
		case results.ManifestKindSweep:
			s.recoverSweep(id, m)
		case results.ManifestKindExplore:
			s.recoverExplore(id, m)
		}
	}
}

// recoverSweep re-registers an unfinished sweep under its original id.
// Members missing from the registry (they completed before the crash, so
// replay no longer lists them) go back through feed: settled from the
// store, or re-queued if the result has since fallen out of it. preCached
// stays nil: nothing was finished before this process started, and a
// member the recovery feeder has already settled from the store carries
// the cached mark on its own run state.
func (s *Server) recoverSweep(id string, m results.Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sweeps[id]; ok {
		return
	}
	var pending []results.Job
	for _, jb := range m.Jobs {
		st, ok := s.runs[jb.Key]
		if !ok {
			st = s.newRunLocked(jb.Key, jb.Request.Harness())
			pending = append(pending, jb)
		}
		st.refs++
	}
	s.sweeps[id] = &sweepState{id: id, keys: m.Keys()}
	s.sweepOrder = append(s.sweepOrder, id)
	s.evictSweepsLocked()
	s.feedLocked(pending, false)
}

// recoverExplore re-drives an unfinished exploration under its original
// id. Explorations are deterministic given their request, so replay is
// a re-run in which every already-evaluated candidate is a store hit.
func (s *Server) recoverExplore(id string, m results.Manifest) {
	var er exploreRequest
	if err := json.Unmarshal(m.Explore, &er); err != nil {
		_ = s.opts.Journal.Append(journal.Record{Op: journal.OpManifestDone, Manifest: id})
		return
	}
	space, strat, programs, twin, sp, err := s.resolveExplore(&er)
	if err != nil {
		// The request no longer resolves (e.g. a renamed config profile
		// across versions): it can never finish, so retire the manifest
		// rather than replay-crash forever.
		_ = s.opts.Journal.Append(journal.Record{Op: journal.OpManifestDone, Manifest: id})
		return
	}
	s.mu.Lock()
	if _, ok := s.explores[id]; ok {
		s.mu.Unlock()
		return
	}
	st := &exploreState{id: id, status: statusRunning}
	st.view = exploreView{ID: id, Status: statusRunning, Strategy: strat.Name(), SpaceSize: space.Size()}
	s.explores[id] = st
	s.exploreOrder = append(s.exploreOrder, id)
	s.evictExploresLocked()
	s.exploreWG.Add(1)
	s.mu.Unlock()
	go s.driveExplore(st, space, strat, programs, twin, sp, er)
}

// --- re-attach fallbacks ---

// lostRunError explains the terminal lost state to a polling client.
const lostRunError = "run is not registered on this coordinator and its result is not in the store: " +
	"the job was lost (pre-journal restart or registry eviction) — resubmit it"

// runFallback answers a GET for a run id the registry does not hold.
// Plausible content keys are answered from the store (done, cached) or
// reported terminally lost; anything else stays a 404.
func (s *Server) runFallback(w http.ResponseWriter, id string) bool {
	if !isRunKey(id) {
		return false
	}
	writeBody(w, http.StatusOK, appendRunView(nil, s.storedRunView(id)))
	return true
}

// storedRunView is the view of a run the registry does not hold: served
// from the store (done or failed, cached), or else lost.
func (s *Server) storedRunView(id string) runView {
	res, hit, err := s.opts.Store.Get(id)
	if err != nil || !hit {
		return runView{ID: id, Status: statusLost, Error: lostRunError}
	}
	v := runView{ID: id, Status: statusDone, Cached: true, record: encodeRecord(res)}
	if res.Failed() {
		v.Status = statusFailed
	}
	return v
}

// sweepFallback answers a GET for a sweep id the registry does not hold
// by reconstructing the view purely from its durable manifest plus the
// content-addressed store — the re-attach path.
func (s *Server) sweepFallback(w http.ResponseWriter, id string) bool {
	if s.opts.Journal == nil || !strings.HasPrefix(id, results.ManifestKindSweep+"-") {
		return false
	}
	m, ok, err := s.opts.Journal.GetManifest(id)
	if err != nil || !ok || m.Kind != results.ManifestKindSweep {
		return false
	}
	if m.Done && len(m.Final) > 0 {
		// The final view is served as it was rendered and stored.
		var v struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(m.Final, &v) == nil && v.ID == id {
			writeBody(w, http.StatusOK, m.Final)
			return true
		}
	}
	writeBody(w, http.StatusOK, appendSweepView(nil, s.reconstructSweepView(id, m)))
	return true
}

// reconstructSweepView assembles sweep progress from manifest + store.
// Members neither registered nor stored are reported lost: with the
// sweep itself out of the registry nothing will ever run them, and the
// client must see a terminal state, not an eternal "running".
func (s *Server) reconstructSweepView(id string, m results.Manifest) sweepView {
	v := sweepView{ID: id, Total: len(m.Jobs), Runs: make([]runView, 0, len(m.Jobs))}
	for _, jb := range m.Jobs {
		var rv runView
		s.mu.Lock()
		st, ok := s.runs[jb.Key]
		if ok {
			rv = viewRun(st)
		}
		s.mu.Unlock()
		if !ok {
			rv = s.storedRunView(jb.Key)
		}
		v.Runs = append(v.Runs, rv)
		switch rv.Status {
		case statusDone:
			v.Done++
		case statusFailed:
			v.Failed++
		case statusLost:
			v.Lost++
		}
		if rv.Cached {
			v.CacheHits++
		}
	}
	switch {
	case v.Done+v.Failed+v.Lost < v.Total:
		v.Status = statusRunning
		return v
	case v.Lost == v.Total:
		v.Status = statusLost
	case v.Failed > 0 || v.Lost > 0:
		v.Status = statusFailed
	default:
		v.Status = statusDone
	}
	v.listResults = v.Failed == 0 && v.Lost == 0
	return v
}

// exploreFallback answers a GET for an exploration id the registry does
// not hold from its manifest's terminal snapshot. Unfinished
// explorations are not served this way — recovery re-drives them into
// the registry, so a missing registry entry with an unfinished manifest
// means the id belongs to no recoverable work.
func (s *Server) exploreFallback(w http.ResponseWriter, id string) bool {
	if s.opts.Journal == nil || !strings.HasPrefix(id, results.ManifestKindExplore+"-") {
		return false
	}
	m, ok, err := s.opts.Journal.GetManifest(id)
	if err != nil || !ok || m.Kind != results.ManifestKindExplore || !m.Done || len(m.Final) == 0 {
		return false
	}
	var v exploreView
	if err := json.Unmarshal(m.Final, &v); err != nil || v.ID != id {
		return false
	}
	writeJSON(w, http.StatusOK, v)
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
	// killed makes workers drain the pool without executing and mutes
	// every journal hook, so the on-disk state freezes as of this
	// instant — exactly what a real crash leaves behind.
	s.killed.Store(true)
	s.shutdown()
}

// RecoveryInfo summarizes what startup replay reconstructed, for the
// daemon's boot log.
type RecoveryInfo struct {
	Entries   int  `json:"entries"`
	Jobs      int  `json:"jobs"`
	Manifests int  `json:"manifests"`
	Torn      bool `json:"torn"`
}

// Recovery reports the journal replay summary (zero without a journal).
func (s *Server) Recovery() RecoveryInfo {
	if s.opts.Journal == nil {
		return RecoveryInfo{}
	}
	st := s.opts.Journal.ReplayState()
	return RecoveryInfo{
		Entries:   st.Entries,
		Jobs:      len(st.Jobs),
		Manifests: len(st.OpenManifests),
		Torn:      st.Torn,
	}
}
