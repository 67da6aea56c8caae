// Package fleet distributes simulation work across remote workers: a
// Coordinator that hands out TTL leases over pending runs and a Worker
// client that pulls, executes, and returns them.
//
// The protocol is four POSTs against the coordinator's daemon:
//
//	POST /v1/fleet/workers    register {name, capacity}   -> {worker_id, lease_ttl_ms, heartbeat_ms}
//	POST /v1/fleet/lease      pull a batch under TTL      -> {jobs, lease_ttl_ms}
//	POST /v1/fleet/complete   return results.Result batch -> {accepted, rejected}
//	POST /v1/fleet/heartbeat  renew liveness + leases     -> {}
//	GET  /v1/fleet            topology snapshot for operators
//
// A worker generates the traces it replays itself, through the same
// trace cache as every other consumer: nothing but jobs and records
// crosses the wire.
//
// Leases are the failure-recovery mechanism: a worker that stops
// heartbeating lets its leases expire, and the coordinator requeues them
// for any other worker (the daemon's own local workers included). Every payload is
// content-addressed — a job carries its key and a completion is matched
// to its lease by key — so retries, duplicate completions, and re-runs
// after requeue are all idempotent: the same key always denotes the same
// deterministic simulation.
package fleet

import "repro/internal/results"

// SecretHeader carries the fleet shared secret on every worker→
// coordinator call. A coordinator started with a secret rejects fleet
// calls without the matching header value with 401; workers are given the
// secret out of band (-fleet-secret on both binaries).
const SecretHeader = "X-Fleet-Secret"

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a free-form label for logs and the status endpoint
	// (hostname, pod name); uniqueness is not required.
	Name string `json:"name,omitempty"`
	// Capacity is how many simulations the worker runs concurrently.
	Capacity int `json:"capacity"`
}

// RegisterResponse assigns the worker its identity and cadence.
type RegisterResponse struct {
	// WorkerID names the worker in every subsequent call.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is how long the worker holds a leased job before the
	// coordinator requeues it. Heartbeats renew all held leases.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// HeartbeatMillis is how often the worker should heartbeat.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// LeaseRequest pulls up to Max pending jobs.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
}

// LeaseResponse carries the leased batch. Jobs ride the verified
// results.JobBatch encoding: every job's key is checked against its
// request hash on both ends of the wire.
type LeaseResponse struct {
	results.JobBatch
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// CompleteRequest returns finished records to the coordinator.
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	results.ResultBatch
}

// CompleteResponse acknowledges a completion batch. Rejected counts
// records the coordinator did not recognize as leased or pending — late
// arrivals after a requeue already finished elsewhere, or keys the worker
// was never given.
type CompleteResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// HeartbeatRequest renews a worker's liveness and every lease it holds.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}
