package fleet

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/results"
)

// CoordinatorOptions tunes lease and liveness behavior. The zero value
// gets production defaults; tests shrink the lease TTL to milliseconds.
type CoordinatorOptions struct {
	// LeaseTTL is how long a leased job survives without a heartbeat
	// before it is requeued. Every other timing follows from it: workers
	// are told to heartbeat every LeaseTTL/3, a worker silent for
	// 2×LeaseTTL is dropped and its leases requeued at once, and the
	// requeue sweeper ticks every LeaseTTL/4, clamped to [10ms, 1s].
	// Default: 30s.
	LeaseTTL time.Duration
	// OnPoison, when set, is called (outside the coordinator lock) for
	// every job moved to the poisoned lot, with the job and the attempts
	// it consumed. The server uses it to fail the registered run.
	OnPoison func(j results.Job, attempts int)

	// now overrides the clock in tests.
	now func() time.Time
}

// maxLeaseBatch caps the jobs granted in one lease call regardless of
// the worker's ask.
const maxLeaseBatch = 64

// maxJobAttempts caps how many leases one job may burn before it is
// parked in the poisoned-job lot instead of requeued: one crash-inducing
// request must not ping-pong across the fleet forever.
const maxJobAttempts = 5

// withDefaults fills unset options.
func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// heartbeatEvery is the cadence workers are told to heartbeat at: three
// chances to renew a lease before it expires.
func (o CoordinatorOptions) heartbeatEvery() time.Duration { return o.LeaseTTL / 3 }

// sweepEvery is the requeue sweeper's tick: an expired lease waits at most
// a quarter TTL, and never more than a second, for its requeue, while a
// millisecond test TTL does not spin the sweeper.
func (o CoordinatorOptions) sweepEvery() time.Duration {
	return min(max(o.LeaseTTL/4, 10*time.Millisecond), time.Second)
}

// ErrUnknownWorker is returned for calls naming an unregistered (or
// expired) worker id; the worker's recovery is to re-register.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// ErrPoolFull refuses a job the pending pool has no room for.
var ErrPoolFull = errors.New("fleet: pending pool full")

// ErrStopped refuses work after Stop: a worker told so has nothing left to
// lease from this coordinator.
var ErrStopped = errors.New("fleet: coordinator stopped")

// errOwned refuses a key the pool already holds, pending or leased.
var errOwned = errors.New("fleet: job already pending or leased")

// job is one distributable run while the coordinator owns it.
type job struct {
	j results.Job
	// workload is computed once, at Enqueue; el is the job's place in the
	// pending list, nil while it is leased.
	workload string
	el       *list.Element
	// worker and expires are set while leased; a requeued job returns to
	// pending with both cleared.
	worker  string
	expires time.Time
	// attempts counts leases granted for this job; at maxJobAttempts an
	// expiring lease parks the job in the poisoned lot instead of
	// requeuing it.
	attempts int
}

// workerState tracks one registered worker.
type workerState struct {
	id       string
	name     string
	capacity int
	lastSeen time.Time
	// leased holds the keys this worker currently leases.
	leased map[string]bool
	// local marks one of the daemon's own workers: it cannot be lost
	// without the pool dying with it, so it and its leases never expire.
	local bool
}

// Coordinator owns the distributable-work pool: pending jobs, outstanding
// leases, and the worker registry. It is the daemon's only run queue,
// with or without a fleet, and Lease is its only way out: the daemon's
// local workers lease one job at a time (the oldest) and wait in Lease
// while nothing is pending, remote workers lease batches (whole workload
// groups), so whoever is free first wins the next job.
type Coordinator struct {
	opts CoordinatorOptions
	// bound caps what Enqueue and TryEnqueue let wait in pending; 0 or
	// less leaves the pool unbounded.
	bound int

	mu   sync.Mutex
	cond *sync.Cond // signaled when pending grows or the pool closes; local leases wait on it
	room *sync.Cond // signaled when pending shrinks or the pool closes
	// pending is the pool in arrival order, requeued jobs at the back;
	// groups indexes the same jobs by workload, each group in arrival
	// order too.
	pending *list.List // of *job
	groups  map[string][]*job
	byKey   map[string]*job
	workers map[string]*workerState
	// poisoned parks jobs that burned their attempt cap; they never
	// return to pending unless their key is re-enqueued by a fresh
	// submission. poisonNotify buffers OnPoison callbacks so they fire
	// outside the lock.
	poisoned     map[string]*job
	poisonNotify []*job
	// epoch is drawn once per coordinator and is part of every worker id,
	// so ids are unique across coordinator lifetimes: a worker that
	// outlives a restart presents an id the new coordinator never issued,
	// gets ErrUnknownWorker and re-registers, instead of sharing an id the
	// restarted counter just handed to someone else.
	epoch  string
	nextID int
	closed bool

	requeues        atomic.Uint64
	remoteCompleted atomic.Uint64
	poisonedTotal   atomic.Uint64

	stop     chan struct{}
	sweepers sync.WaitGroup
}

// NewCoordinator starts a coordinator and its requeue sweeper. bound is
// how many jobs may wait in the pending pool before Enqueue blocks and
// TryEnqueue refuses; 0 or less means no bound.
func NewCoordinator(opts CoordinatorOptions, bound int) *Coordinator {
	c := &Coordinator{
		opts:     opts.withDefaults(),
		bound:    bound,
		pending:  list.New(),
		groups:   make(map[string][]*job),
		byKey:    make(map[string]*job),
		workers:  make(map[string]*workerState),
		poisoned: make(map[string]*job),
		stop:     make(chan struct{}),
	}
	var epoch [4]byte
	_, _ = rand.Read(epoch[:]) // never fails: crypto/rand aborts the process instead
	c.epoch = hex.EncodeToString(epoch[:])
	c.cond = sync.NewCond(&c.mu)
	c.room = sync.NewCond(&c.mu)
	c.sweepers.Add(1)
	go c.sweep()
	return c
}

// LeaseTTL reports the configured lease TTL.
func (c *Coordinator) LeaseTTL() time.Duration { return c.opts.LeaseTTL }

// HeartbeatEvery reports the heartbeat cadence workers are assigned.
func (c *Coordinator) HeartbeatEvery() time.Duration { return c.opts.heartbeatEvery() }

// sweep periodically requeues expired leases and drops expired workers.
func (c *Coordinator) sweep() {
	defer c.sweepers.Done()
	t := time.NewTicker(c.opts.sweepEvery())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			c.expireLocked()
			c.mu.Unlock()
			c.firePoisonCallbacks()
		case <-c.stop:
			return
		}
	}
}

// expireLocked requeues every expired lease and prunes dead workers.
// Callers must hold c.mu.
func (c *Coordinator) expireLocked() {
	now := c.opts.now()
	for id, w := range c.workers {
		if !w.local && now.Sub(w.lastSeen) > 2*c.opts.LeaseTTL {
			c.dropWorkerLocked(id)
		}
	}
	// Every lease is in its worker's set (a dropped worker's were requeued
	// above), so expiry costs what is leased, not what is pending.
	for _, w := range c.workers {
		if w.local {
			continue
		}
		for key := range w.leased {
			if jb, ok := c.byKey[key]; ok && jb.worker == w.id && now.After(jb.expires) {
				c.requeueLocked(jb)
			}
		}
	}
}

// dropWorkerLocked forgets a worker and requeues everything it leased.
// Callers must hold c.mu.
func (c *Coordinator) dropWorkerLocked(id string) {
	w, ok := c.workers[id]
	if !ok {
		return
	}
	delete(c.workers, id)
	for key := range w.leased {
		if jb, ok := c.byKey[key]; ok && jb.worker == id {
			c.requeueLocked(jb)
		}
	}
}

// requeueLocked returns a leased job to the pending pool — or, once it
// has burned its attempt cap, parks it in the poisoned lot. Callers must
// hold c.mu.
func (c *Coordinator) requeueLocked(jb *job) {
	if w, ok := c.workers[jb.worker]; ok {
		delete(w.leased, jb.j.Key)
	}
	jb.worker = ""
	jb.expires = time.Time{}
	if jb.attempts >= maxJobAttempts {
		delete(c.byKey, jb.j.Key)
		c.poisoned[jb.j.Key] = jb
		c.poisonNotify = append(c.poisonNotify, jb)
		c.poisonedTotal.Add(1)
		return
	}
	c.pushLocked(jb)
	c.requeues.Add(1)
}

// pushLocked appends a job to the pending pool and its workload's group.
// Callers must hold c.mu.
func (c *Coordinator) pushLocked(jb *job) {
	jb.el = c.pending.PushBack(jb)
	c.groups[jb.workload] = append(c.groups[jb.workload], jb)
	c.cond.Signal()
}

// takeLocked removes a pending job from the pool and its group. Callers
// must hold c.mu.
func (c *Coordinator) takeLocked(jb *job) {
	c.pending.Remove(jb.el)
	jb.el = nil
	g := c.groups[jb.workload]
	if g[0] == jb {
		g[0] = nil
		g = g[1:]
	} else { // only a late completion of a requeued job takes from the middle
		i := slices.Index(g, jb)
		g = slices.Delete(g, i, i+1)
	}
	if len(g) == 0 {
		delete(c.groups, jb.workload)
	} else {
		c.groups[jb.workload] = g
	}
	c.room.Broadcast()
}

// firePoisonCallbacks drains the poison-notification buffer and invokes
// OnPoison outside the coordinator lock (the callback may take other
// locks, e.g. the server registry).
func (c *Coordinator) firePoisonCallbacks() {
	c.mu.Lock()
	evs := c.poisonNotify
	c.poisonNotify = nil
	c.mu.Unlock()
	if c.opts.OnPoison == nil {
		return
	}
	for _, jb := range evs {
		c.opts.OnPoison(jb.j, jb.attempts)
	}
}

// Enqueue adds one job to the pending pool, waiting while the pool is at
// its bound until a consumer makes room or the coordinator stops. A key
// already pending or leased is refused (the run registry upstream
// coalesces on key, so a duplicate here means a requeue raced a late
// completion).
func (c *Coordinator) Enqueue(j results.Job) error { return c.enqueue(j, true) }

// TryEnqueue is Enqueue for callers that cannot wait: a pool at its bound
// refuses the job with ErrPoolFull.
func (c *Coordinator) TryEnqueue(j results.Job) error { return c.enqueue(j, false) }

func (c *Coordinator) enqueue(j results.Job, wait bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return ErrStopped
		}
		if _, ok := c.byKey[j.Key]; ok {
			return errOwned
		}
		if c.bound <= 0 || c.pending.Len() < c.bound {
			break
		}
		if !wait {
			return ErrPoolFull
		}
		c.room.Wait()
	}
	// A fresh submission of a previously poisoned key gets a clean slate:
	// the caller (run registry) decided to try again.
	delete(c.poisoned, j.Key)
	jb := &job{j: j, workload: workloadKey(j)}
	c.byKey[j.Key] = jb
	c.pushLocked(jb)
	return nil
}

// workloadKey identifies jobs that replay the same materialized traces:
// same canonical workload spec (which encodes per-stream budgets and
// seeds) and same request-level budgets. The pool indexes pending jobs by
// it, so a lease is handed runs whose traces the worker generates once.
func workloadKey(j results.Job) string {
	return fmt.Sprintf("%s|%d|%d", j.Request.WorkloadLabel(), j.Request.Insts, j.Request.Warmup)
}

// WorkloadMajor reorders jobs so that those sharing a workload are
// adjacent: workloads in order of first appearance, each one's jobs in
// their given order. Feeders enqueue in this order, so the local workers,
// which lease the oldest job, run one workload's jobs back to back, and a
// list longer than the pool still reaches it one workload at a time.
func WorkloadMajor(jobs []results.Job) []results.Job {
	index := make(map[string]int)
	var groups [][]results.Job
	for _, j := range jobs {
		wk := workloadKey(j)
		i, ok := index[wk]
		if !ok {
			i = len(groups)
			index[wk] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], j)
	}
	out := make([]results.Job, 0, len(jobs))
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// Register adds a worker and assigns its id. Capacity below 1 is clamped.
// local registers one of the daemon's own in-process workers: see Lease,
// and Stats and Workers, which describe the remote fleet only. Only a
// local worker may register after Stop, to drain what is pending.
func (c *Coordinator) Register(name string, capacity int, local bool) (RegisterResponse, error) {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed && !local {
		return RegisterResponse{}, ErrStopped
	}
	c.nextID++
	id := fmt.Sprintf("worker-%s-%04d", c.epoch, c.nextID)
	c.workers[id] = &workerState{
		id: id, name: name, capacity: capacity,
		lastSeen: c.opts.now(),
		leased:   make(map[string]bool),
		local:    local,
	}
	return RegisterResponse{
		WorkerID:        id,
		LeaseTTLMillis:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: c.opts.heartbeatEvery().Milliseconds(),
	}, nil
}

// Heartbeat marks the worker alive and renews every lease it holds.
func (c *Coordinator) Heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	now := c.opts.now()
	w.lastSeen = now
	for key := range w.leased {
		if jb, ok := c.byKey[key]; ok && jb.worker == workerID {
			jb.expires = now.Add(c.opts.LeaseTTL)
		}
	}
	return nil
}

// Lease grants up to max pending jobs to the worker under the TTL. A
// remote worker runs a lease as one batch and may hold twice its
// capacity: a batch can replay one generated trace for more runs than the
// worker runs at once, while one worker cannot keep more from the others.
// A local worker holds its capacity; on an empty pool its Lease waits for
// a job or Stop, and after Stop it drains what is pending before
// ErrStopped.
func (c *Coordinator) Lease(workerID string, max int) ([]results.Job, error) {
	// The expiry sweep may park jobs; their callbacks fire after the
	// deferred unlock, outside the lock.
	defer c.firePoisonCallbacks()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		// Sweep before resolving the caller: a worker silent past its
		// expiry must be dropped here and told to re-register, never handed
		// leases under an id the registry no longer holds. A stopped pool
		// sweeps nothing.
		if !c.closed {
			c.expireLocked()
		}
		w, ok := c.workers[workerID]
		switch {
		case c.closed && (!ok || !w.local || c.pending.Len() == 0):
			return nil, ErrStopped
		case !ok:
			return nil, ErrUnknownWorker
		case w.local && c.pending.Len() == 0:
			c.cond.Wait()
		default:
			return c.leaseLocked(w, max), nil
		}
	}
}

// leaseLocked grants w up to max pending jobs. Callers must hold c.mu.
func (c *Coordinator) leaseLocked(w *workerState, max int) []results.Job {
	now := c.opts.now()
	w.lastSeen = now
	if max <= 0 || max > maxLeaseBatch {
		max = maxLeaseBatch
	}
	room := 2 * w.capacity
	if w.local {
		room = w.capacity
	}
	if room -= len(w.leased); max > room {
		max = room
	}
	// Grants are grouped by workload: the oldest pending job and its whole
	// group join the same lease (then the next oldest job's group, and so
	// on). A worker thus receives runs that replay one materialized trace
	// — which it generates once — instead of an arbitrary FIFO slice
	// cutting across workloads. Starvation-free: the oldest job is always
	// granted first.
	var out []results.Job
	for len(out) < max && c.pending.Len() > 0 {
		wk := c.pending.Front().Value.(*job).workload
		for len(out) < max && len(c.groups[wk]) > 0 {
			jb := c.groups[wk][0]
			c.takeLocked(jb)
			c.grantLocked(jb, w, now)
			out = append(out, jb.j)
		}
	}
	return out
}

// grantLocked marks one job leased by w. Callers must hold c.mu.
func (c *Coordinator) grantLocked(jb *job, w *workerState, now time.Time) {
	jb.worker = w.id
	jb.expires = now.Add(c.opts.LeaseTTL)
	jb.attempts++
	w.leased[jb.j.Key] = true
}

// Complete settles one returned record. It reports true when the key was
// an outstanding lease (any worker's — a slow worker may return a job
// whose lease expired and was re-leased elsewhere; the first completion
// wins) or still pending after a requeue. False means the coordinator no
// longer owns the key and the caller should drop the record.
func (c *Coordinator) Complete(workerID, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	remote := true
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = c.opts.now()
		delete(w.leased, key)
		remote = !w.local
	}
	jb, ok := c.byKey[key]
	if !ok {
		return false
	}
	if w, ok := c.workers[jb.worker]; ok {
		delete(w.leased, key)
	}
	if jb.el != nil { // requeued and pending again
		c.takeLocked(jb)
	}
	delete(c.byKey, key)
	if remote {
		c.remoteCompleted.Add(1)
	}
	return true
}

// Stop refuses new work — a blocked Enqueue included — and wakes the
// local workers' waiting leases: they drain the pending pool, then get
// ErrStopped like everyone else. Outstanding remote leases are abandoned
// — the daemon is shutting down, and the runs they name die with its
// registry.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.room.Broadcast()
	c.mu.Unlock()
	close(c.stop)
	c.sweepers.Wait()
}

// Stats is a point-in-time view of the pool, surfaced as /metrics gauges.
// Apart from Pending, which every worker draws from, it describes the
// remote fleet: the daemon's local workers are not counted.
type Stats struct {
	// Workers is the number of registered (live) remote workers.
	Workers int `json:"workers"`
	// Capacity is the remote workers' summed concurrent-simulation capacity.
	Capacity int `json:"capacity"`
	// Pending counts jobs waiting for any worker.
	Pending int `json:"pending"`
	// Leased counts jobs currently out under a remote lease.
	Leased int `json:"leased"`
	// Requeues counts leases that expired (or died with their worker) and
	// went back to pending.
	Requeues uint64 `json:"requeues"`
	// RemoteCompleted counts records accepted from remote workers.
	RemoteCompleted uint64 `json:"remote_completed"`
	// PoisonedTotal counts jobs parked after burning their attempt cap.
	PoisonedTotal uint64 `json:"poisoned_total"`
	// PoisonedParked is the current size of the poisoned lot.
	PoisonedParked int `json:"poisoned_parked"`
}

// Stats snapshots the pool.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Pending:         c.pending.Len(),
		Leased:          len(c.byKey) - c.pending.Len(),
		Requeues:        c.requeues.Load(),
		RemoteCompleted: c.remoteCompleted.Load(),
		PoisonedTotal:   c.poisonedTotal.Load(),
		PoisonedParked:  len(c.poisoned),
	}
	for _, w := range c.workers {
		if w.local {
			st.Leased -= len(w.leased)
		} else {
			st.Workers++
			st.Capacity += w.capacity
		}
	}
	return st
}

// PoisonedInfo describes one parked job for the status endpoint.
type PoisonedInfo struct {
	Key string `json:"key"`
	// Attempts is how many leases the job consumed before parking.
	Attempts int `json:"attempts"`
}

// Poisoned lists the parked jobs, sorted by key.
func (c *Coordinator) Poisoned() []PoisonedInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PoisonedInfo, 0, len(c.poisoned))
	for key, jb := range c.poisoned {
		out = append(out, PoisonedInfo{Key: key, Attempts: jb.attempts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WorkerInfo describes one registered worker for the status endpoint.
type WorkerInfo struct {
	ID            string `json:"id"`
	Name          string `json:"name,omitempty"`
	Capacity      int    `json:"capacity"`
	Leases        int    `json:"leases"`
	LastSeenMsAgo int64  `json:"last_seen_ms_ago"`
}

// Workers lists registered remote workers in registration order.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		if w.local {
			continue
		}
		out = append(out, WorkerInfo{
			ID: w.id, Name: w.name, Capacity: w.capacity,
			Leases:        len(w.leased),
			LastSeenMsAgo: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
