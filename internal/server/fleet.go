package server

// The worker protocol's coordinator side. The daemon's local workers are
// fleet workers whose calls reach these handlers in process (see
// localTransport); with Options.Fleet set the same handlers serve remote
// workers too, and the two compete for work — whoever is free first wins
// the next job. Every record returns through POST /v1/fleet/complete into
// the one content-addressed store and run registry, so sweeps,
// explorations, and dedup are executor-blind: a fleet-backed daemon
// answers byte-identically to a single-process one.

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/results"
)

// mountFleet serves the worker protocol on mux, to the daemon's local
// workers (local) or to remote ones.
func (s *Server) mountFleet(mux *http.ServeMux, local bool) {
	auth := s.fleetAuth
	mux.HandleFunc("POST /v1/fleet/workers", auth(s.handleFleetRegister(local)))
	mux.HandleFunc("POST /v1/fleet/lease", auth(s.handleFleetLease(local)))
	mux.HandleFunc("POST /v1/fleet/complete", auth(s.handleFleetComplete))
	mux.HandleFunc("POST /v1/fleet/heartbeat", auth(s.handleFleetHeartbeat))
	mux.HandleFunc("GET /v1/fleet", auth(s.handleFleetStatus))
}

// localTransport carries a local worker's fleet calls: the handlers on
// its mux serve each request in process, with no socket in between.
type localTransport struct{ h http.Handler }

func (t localTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if err := r.Context().Err(); err != nil {
		return nil, err // a stopped worker's call never lands
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r.WithContext(r.Context())) // a copy: the mux records its match in it
	return rec.Result(), nil
}

// fleetAuth guards one fleet handler with the shared-secret check: with
// Options.FleetSecret set, a request whose fleet.SecretHeader does not
// match is refused with 401 before the handler sees it. Comparison is
// constant-time so the secret cannot be guessed byte by byte.
func (s *Server) fleetAuth(h http.HandlerFunc) http.HandlerFunc {
	if s.opts.FleetSecret == "" {
		return h
	}
	secret := []byte(s.opts.FleetSecret)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get(fleet.SecretHeader))
		if subtle.ConstantTimeCompare(got, secret) != 1 {
			httpError(w, http.StatusUnauthorized, errors.New("missing or invalid fleet secret"))
			return
		}
		h(w, r)
	}
}

// poisonRun fails the run behind a job the coordinator parked in the
// poisoned lot: the simulation crashed or hung enough workers to burn its
// attempt cap, and whoever submitted it must see a terminal failure, not
// an eternally queued run. Runs outside the registry (evicted, or a stale
// requeue) are ignored.
func (s *Server) poisonRun(j results.Job, attempts int) {
	res := results.Result{
		Key:     j.Key,
		Config:  j.Request.Config.Name,
		Program: j.Request.WorkloadLabel(),
		Err:     fmt.Sprintf("poisoned: %d lease attempts expired without a completion", attempts),
	}
	s.mu.Lock()
	if st, ok := s.runs[j.Key]; ok && !st.status.terminal() {
		s.finishLocked(st, res, false)
		s.metrics.RunsFailed.Add(1)
	}
	s.mu.Unlock()
	s.journalRun(journal.Record{Op: journal.OpPoison, Key: j.Key})
}

// completeRemote lands one record a worker, local or remote, executed.
// worker labels the completion-latency observation.
func (s *Server) completeRemote(worker string, res results.Result) {
	s.mu.Lock()
	st, ok := s.runs[res.Key]
	if !ok || st.status.terminal() {
		s.mu.Unlock()
		return
	}
	startedAt := st.startedAt
	s.mu.Unlock()
	if !startedAt.IsZero() {
		// Lease grant to completion, as the coordinator saw it: includes
		// the round trips, which is the number an operator watching a
		// fleet needs.
		s.workerLatency.observe(worker, time.Since(startedAt).Seconds())
	}
	s.settleExecuted(res)
}

// handleFleetRegister admits one worker into the fleet.
func (s *Server) handleFleetRegister(local bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var rr fleet.RegisterRequest
		if !decodeBody(w, r, &rr) {
			return
		}
		resp, err := s.fleet.Register(rr.Name, rr.Capacity, local)
		if err != nil {
			httpError(w, fleetStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleFleetLease grants a worker its next batch under the lease TTL.
func (s *Server) handleFleetLease(local bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var lr fleet.LeaseRequest
		if !decodeBody(w, r, &lr) {
			return
		}
		jobs, err := s.fleet.Lease(lr.WorkerID, lr.Max)
		if err != nil {
			httpError(w, fleetStatus(err), err)
			return
		}
		// Verify the batch before it ships — the coordinator's half of the
		// wire-integrity contract (the worker re-verifies on decode). A
		// mismatch here is a server bug; the refused jobs requeue via lease
		// expiry.
		batch := results.JobBatch{Jobs: jobs}
		if err := batch.Verify(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		// Leased runs are in flight from the service's point of view; the
		// ones a local worker leased are the simulations the daemon starts.
		if local {
			s.metrics.RunsStarted.Add(uint64(len(jobs)))
		}
		now := time.Now()
		var queueAges []float64
		s.mu.Lock()
		for _, j := range jobs {
			if st, ok := s.runs[j.Key]; ok && !st.status.terminal() {
				if st.status == statusQueued && !st.queuedAt.IsZero() {
					queueAges = append(queueAges, now.Sub(st.queuedAt).Seconds())
				}
				st.status = statusRunning
				st.startedAt = now
			}
		}
		s.mu.Unlock()
		for _, age := range queueAges {
			s.histQueueAge.observe(age)
		}
		writeJSON(w, http.StatusOK, fleet.LeaseResponse{
			JobBatch:       batch,
			LeaseTTLMillis: s.fleet.LeaseTTL().Milliseconds(),
		})
	}
}

// handleFleetComplete accepts a batch of finished records. Each is
// settled against the coordinator first: only keys it still owns
// (leased, or requeued and pending again) are accepted, so a duplicate
// completion — or one for a key that already finished elsewhere — is
// counted rejected and dropped, never overwriting run state.
func (s *Server) handleFleetComplete(w http.ResponseWriter, r *http.Request) {
	var cr fleet.CompleteRequest
	if !decodeBody(w, r, &cr) {
		return
	}
	var resp fleet.CompleteResponse
	for _, res := range cr.Results {
		if res.Key == "" || !s.fleet.Complete(cr.WorkerID, res.Key) {
			resp.Rejected++
			continue
		}
		s.completeRemote(cr.WorkerID, res)
		resp.Accepted++
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFleetHeartbeat renews a worker's liveness and leases.
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hr fleet.HeartbeatRequest
	if !decodeBody(w, r, &hr) {
		return
	}
	if err := s.fleet.Heartbeat(hr.WorkerID); err != nil {
		httpError(w, fleetStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// fleetStatusView is the GET /v1/fleet response body.
type fleetStatusView struct {
	Stats           fleet.Stats          `json:"stats"`
	Workers         []fleet.WorkerInfo   `json:"workers"`
	Poisoned        []fleet.PoisonedInfo `json:"poisoned,omitempty"`
	LeaseTTLMillis  int64                `json:"lease_ttl_ms"`
	HeartbeatMillis int64                `json:"heartbeat_ms"`
}

// handleFleetStatus reports the fleet topology for operators.
func (s *Server) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, fleetStatusView{
		Stats:           s.fleet.Stats(),
		Workers:         s.fleet.Workers(),
		Poisoned:        s.fleet.Poisoned(),
		LeaseTTLMillis:  s.fleet.LeaseTTL().Milliseconds(),
		HeartbeatMillis: s.fleet.HeartbeatEvery().Milliseconds(),
	})
}

// fleetStatus maps coordinator errors onto HTTP statuses: an unknown
// worker is 404 (the client's cue to re-register), a stopped coordinator
// 410 (the worker's cue to return).
func fleetStatus(err error) int {
	switch {
	case errors.Is(err, fleet.ErrUnknownWorker):
		return http.StatusNotFound
	case errors.Is(err, fleet.ErrStopped):
		return http.StatusGone
	}
	return http.StatusServiceUnavailable
}
