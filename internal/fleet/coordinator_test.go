package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// fakeClock is an injectable coordinator clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestCoordinator wires an unbounded coordinator onto a fake clock with
// a slow real-time sweeper, so tests drive expiry deterministically
// through Lease calls (which sweep inline).
func newTestCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *fakeClock) {
	t.Helper()
	return newBoundedCoordinator(t, ttl, 0)
}

// newBoundedCoordinator is newTestCoordinator with a pool bound.
func newBoundedCoordinator(t *testing.T, ttl time.Duration, bound int) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(CoordinatorOptions{
		LeaseTTL:   ttl,
		SweepEvery: time.Hour, // expiry driven via Lease, not wall time
		now:        clk.now,
	}, bound)
	t.Cleanup(c.Stop)
	return c, clk
}

// enqueue adds one job without waiting and reports whether the pool took it.
func enqueue(c *Coordinator, j results.Job) bool {
	return c.TryEnqueue(j) == nil
}

// testJob builds a verifiable job for program index i.
func testJob(t *testing.T, i int) results.Job {
	t.Helper()
	req := results.NewRequest(harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		Workload: workload.Single("gcc"),
		Insts:    uint64(1000 + i),
		Warmup:   100,
	})
	j, err := results.NewJob(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestLeaseCompleteLifecycle(t *testing.T) {
	c, _ := newTestCoordinator(t, time.Minute)
	reg, err := c.Register("w1", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if reg.WorkerID == "" || reg.LeaseTTLMillis != 60_000 {
		t.Fatalf("register: %+v", reg)
	}

	jobs := make([]results.Job, 5)
	for i := range jobs {
		jobs[i] = testJob(t, i)
		if !enqueue(c, jobs[i]) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	// Duplicate keys are refused while owned.
	if enqueue(c, jobs[0]) {
		t.Error("duplicate enqueue accepted")
	}

	// Capacity 2 → at most 4 granted (two batches in flight).
	got, err := c.Lease(reg.WorkerID, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("leased %d jobs, want 4 (2×capacity)", len(got))
	}
	st := c.Stats()
	if st.Pending != 1 || st.Leased != 4 || st.Workers != 1 {
		t.Fatalf("stats after lease: %+v", st)
	}

	for _, j := range got {
		if !c.Complete(reg.WorkerID, j.Key) {
			t.Errorf("completion of leased %s rejected", j.Key)
		}
	}
	// A second completion of the same key is a rejected duplicate.
	if c.Complete(reg.WorkerID, got[0].Key) {
		t.Error("duplicate completion accepted")
	}
	st = c.Stats()
	if st.Leased != 0 || st.RemoteCompleted != 4 || st.Pending != 1 {
		t.Fatalf("stats after complete: %+v", st)
	}
}

func TestExpiredLeaseRequeues(t *testing.T) {
	c, clk := newTestCoordinator(t, time.Minute)
	reg, _ := c.Register("dying", 4, false)
	j := testJob(t, 0)
	enqueue(c, j)
	got, err := c.Lease(reg.WorkerID, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("lease: %v, %d jobs", err, len(got))
	}

	// Within the TTL nothing moves: a second worker sees no work.
	reg2, _ := c.Register("healthy", 4, false)
	if got2, _ := c.Lease(reg2.WorkerID, 1); len(got2) != 0 {
		t.Fatal("job double-leased before expiry")
	}

	// A heartbeat renews the lease...
	clk.advance(45 * time.Second)
	if err := c.Heartbeat(reg.WorkerID); err != nil {
		t.Fatal(err)
	}
	clk.advance(45 * time.Second)
	if got2, _ := c.Lease(reg2.WorkerID, 1); len(got2) != 0 {
		t.Fatal("heartbeat did not renew the lease")
	}

	// ...but silence past the TTL requeues the job to the other worker.
	clk.advance(2 * time.Minute)
	got2, err := c.Lease(reg2.WorkerID, 1)
	if err != nil || len(got2) != 1 || got2[0].Key != j.Key {
		t.Fatalf("expired lease not requeued: %v, %+v", err, got2)
	}
	if st := c.Stats(); st.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", st.Requeues)
	}

	// The slow original worker's late completion is now a duplicate only
	// after the new holder finishes; first completion wins.
	if !c.Complete(reg.WorkerID, j.Key) {
		t.Error("first completion (from the slow worker) rejected; should win")
	}
	if c.Complete(reg2.WorkerID, j.Key) {
		t.Error("second completion accepted")
	}
}

func TestDeadWorkerIsPrunedAndDrained(t *testing.T) {
	c, clk := newTestCoordinator(t, time.Minute) // worker expiry 2×TTL
	reg, _ := c.Register("ghost", 2, false)
	j := testJob(t, 0)
	enqueue(c, j)
	if got, _ := c.Lease(reg.WorkerID, 1); len(got) != 1 {
		t.Fatal("lease failed")
	}
	clk.advance(3 * time.Minute)
	// Any lease call sweeps: the ghost is dropped, its lease requeued.
	reg2, _ := c.Register("live", 2, false)
	got, err := c.Lease(reg2.WorkerID, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("requeued job not leasable: %v, %d", err, len(got))
	}
	if st := c.Stats(); st.Workers != 1 {
		t.Errorf("dead worker still registered: %+v", st)
	}
	if err := c.Heartbeat(reg.WorkerID); err != ErrUnknownWorker {
		t.Errorf("pruned worker heartbeat: %v, want ErrUnknownWorker", err)
	}
}

// TestLeaseDrainsThenStops: a local worker's lease waits on an empty pool
// until a job arrives, takes one job at a time, and after Stop drains
// what is pending before it is told the coordinator stopped; a remote
// worker is told at once. Local workers stay out of Stats and Workers.
func TestLeaseDrainsThenStops(t *testing.T) {
	c, _ := newTestCoordinator(t, time.Minute)
	local, err := c.Register("local-1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Register("remote", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if st, ws := c.Stats(), c.Workers(); st.Workers != 1 || st.Capacity != 2 || len(ws) != 1 || ws[0].ID != remote.WorkerID {
		t.Errorf("the local worker is counted: %+v, %+v", st, ws)
	}

	waited := make(chan []results.Job)
	go func() {
		got, _ := c.Lease(local.WorkerID, 4)
		waited <- got
	}()
	select {
	case got := <-waited:
		t.Fatalf("a local lease on an empty pool returned %d jobs without waiting", len(got))
	case <-time.After(20 * time.Millisecond):
	}
	first := testJob(t, 0)
	enqueue(c, first)
	if got := <-waited; len(got) != 1 || got[0].Key != first.Key {
		t.Fatalf("the waiting lease got %d jobs, want the one enqueued", len(got))
	}
	if !c.Complete(local.WorkerID, first.Key) {
		t.Fatal("local completion refused")
	}
	if st := c.Stats(); st.RemoteCompleted != 0 || st.Leased != 0 {
		t.Errorf("a local completion counted as remote: %+v", st)
	}

	keys := make(map[string]bool)
	for i := 1; i <= 3; i++ {
		j := testJob(t, i)
		keys[j.Key] = true
		enqueue(c, j)
	}
	c.Stop()
	if _, err := c.Lease(remote.WorkerID, 4); !errors.Is(err, ErrStopped) {
		t.Errorf("remote lease after Stop: %v, want ErrStopped", err)
	}
	for len(keys) > 0 {
		got, err := c.Lease(local.WorkerID, 4)
		if err != nil || len(got) != 1 {
			t.Fatalf("draining lease: %d jobs, %v; want one job", len(got), err)
		}
		if !keys[got[0].Key] {
			t.Errorf("leased unknown key %s", got[0].Key)
		}
		delete(keys, got[0].Key)
		c.Complete(local.WorkerID, got[0].Key)
	}
	if _, err := c.Lease(local.WorkerID, 4); !errors.Is(err, ErrStopped) {
		t.Errorf("lease on the drained pool: %v, want ErrStopped", err)
	}
	if enqueue(c, testJob(t, 9)) {
		t.Error("Enqueue accepted after Stop")
	}
	if _, err := c.Register("late", 1, false); !errors.Is(err, ErrStopped) {
		t.Errorf("Register after Stop: %v, want ErrStopped", err)
	}
	late, err := c.Register("local-2", 1, true)
	if err != nil {
		t.Fatalf("a local worker registering after Stop: %v", err)
	}
	if _, err := c.Lease(late.WorkerID, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("late local lease on the drained pool: %v, want ErrStopped", err)
	}
}

func TestWorkersStatusView(t *testing.T) {
	c, clk := newTestCoordinator(t, time.Minute)
	var ids [3]string
	for i := range ids {
		reg, err := c.Register(fmt.Sprintf("w%d", i), i+1, false)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = reg.WorkerID
	}
	clk.advance(5 * time.Second)
	ws := c.Workers()
	if len(ws) != 3 {
		t.Fatalf("Workers() = %d entries, want 3", len(ws))
	}
	for i, w := range ws {
		if w.ID != ids[i] || w.Capacity != i+1 || w.LastSeenMsAgo != 5000 {
			t.Errorf("worker %d: %+v", i, w)
		}
	}
	if st := c.Stats(); st.Capacity != 6 {
		t.Errorf("summed capacity = %d, want 6", st.Capacity)
	}
}

// TestPoisonedJobParksAfterAttemptCap: a job whose leases keep expiring
// must stop ping-ponging at MaxJobAttempts, land in the poisoned lot,
// fire OnPoison exactly once, and stay out of circulation until a fresh
// Enqueue gives its key a clean slate.
func TestPoisonedJobParksAfterAttemptCap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	type poison struct {
		key      string
		attempts int
	}
	var mu sync.Mutex
	var poisons []poison
	c := NewCoordinator(CoordinatorOptions{
		LeaseTTL:       time.Minute,
		SweepEvery:     time.Hour, // expiry driven via Lease, not wall time
		MaxJobAttempts: 2,
		OnPoison: func(j results.Job, attempts int) {
			mu.Lock()
			poisons = append(poisons, poison{key: j.Key, attempts: attempts})
			mu.Unlock()
		},
		now: clk.now,
	}, 0)
	t.Cleanup(c.Stop)

	jb := testJob(t, 1)
	if !enqueue(c, jb) {
		t.Fatal("enqueue refused")
	}
	reg, err := c.Register("crashy", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1: lease, let it expire.
	jobs, err := c.Lease(reg.WorkerID, 10)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("lease 1: %v, %d jobs", err, len(jobs))
	}
	clk.advance(90 * time.Second)
	// Attempt 2: the expired job requeues and immediately re-leases.
	jobs, err = c.Lease(reg.WorkerID, 10)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("lease 2: %v, %d jobs", err, len(jobs))
	}
	if got := c.Stats().Requeues; got != 1 {
		t.Fatalf("requeues = %d, want 1", got)
	}
	clk.advance(90 * time.Second)
	// Third expiry hits the cap: parked, not requeued.
	jobs, err = c.Lease(reg.WorkerID, 10)
	if err != nil || len(jobs) != 0 {
		t.Fatalf("lease 3 handed out a poisoned job: %v, %d jobs", err, len(jobs))
	}
	st := c.Stats()
	if st.PoisonedTotal != 1 || st.PoisonedParked != 1 || st.Pending != 0 {
		t.Fatalf("poison not recorded: %+v", st)
	}
	mu.Lock()
	got := append([]poison(nil), poisons...)
	mu.Unlock()
	if len(got) != 1 || got[0].key != jb.Key || got[0].attempts != 2 {
		t.Fatalf("OnPoison fired wrong: %+v", got)
	}
	lot := c.Poisoned()
	if len(lot) != 1 || lot[0].Key != jb.Key || lot[0].Attempts != 2 {
		t.Fatalf("Poisoned() = %+v", lot)
	}
	// A completion for a parked key is stale: rejected.
	if c.Complete(reg.WorkerID, jb.Key) {
		t.Fatal("completion accepted for a poisoned key")
	}
	// A fresh submission clears the parking slot and circulates again.
	if !enqueue(c, jb) {
		t.Fatal("re-enqueue of a poisoned key refused")
	}
	if got := c.Stats().PoisonedParked; got != 0 {
		t.Fatalf("parked lot not cleared on re-enqueue: %d", got)
	}
	jobs, err = c.Lease(reg.WorkerID, 10)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("re-lease after re-enqueue: %v, %d jobs", err, len(jobs))
	}
	if !c.Complete(reg.WorkerID, jb.Key) {
		t.Fatal("completion rejected after clean re-enqueue")
	}
}

// testJobFor builds a verifiable job for one (program, config-variant)
// pair, so grouping tests can interleave workloads across distinct keys.
func testJobFor(t *testing.T, program string, clusters, iw int) results.Job {
	t.Helper()
	req := results.NewRequest(harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, clusters, iw, 1),
		Workload: workload.Single(program),
		Insts:    1000,
		Warmup:   100,
	})
	j, err := results.NewJob(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestLeaseGroupsByWorkload pins lease-time workload grouping: after the
// FIFO head, every pending job sharing the head's workload joins the
// grant, so a worker receives runs that replay a single materialized
// trace, fetched once.
func TestLeaseGroupsByWorkload(t *testing.T) {
	c, _ := newTestCoordinator(t, time.Minute)
	reg, err := c.Register("w1", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	// Config-major interleave, the order a naive sweep would enqueue:
	// gcc, swim, gcc, swim, gcc.
	for _, v := range []struct {
		prog   string
		cl, iw int
	}{
		{"gcc", 4, 1}, {"swim", 4, 1}, {"gcc", 4, 2}, {"swim", 4, 2}, {"gcc", 8, 2},
	} {
		if !enqueue(c, testJobFor(t, v.prog, v.cl, v.iw)) {
			t.Fatalf("enqueue %s refused", v.prog)
		}
	}

	got, err := c.Lease(reg.WorkerID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("leased %d jobs, want 3", len(got))
	}
	for i, j := range got {
		if lbl := j.Request.WorkloadLabel(); lbl != "gcc" {
			t.Errorf("grant %d is %s, want gcc (grouped with the head)", i, lbl)
		}
	}

	// The remainder is the other workload, likewise granted together.
	got, err = c.Lease(reg.WorkerID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("second lease got %d jobs, want 2", len(got))
	}
	for i, j := range got {
		if lbl := j.Request.WorkloadLabel(); lbl != "swim" {
			t.Errorf("second grant %d is %s, want swim", i, lbl)
		}
	}
}

// TestWorkerIDsUniqueAcrossCoordinators is the restart scenario: a new
// coordinator (a new process generation) must never hand out an id an
// earlier one issued, and a worker still holding an earlier id must be
// told to re-register on every call — not silently share the id with
// whoever registered first after the restart.
func TestWorkerIDsUniqueAcrossCoordinators(t *testing.T) {
	old, _ := newTestCoordinator(t, time.Minute)
	stale, err := old.Register("survivor", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	old.Stop()

	restarted, _ := newTestCoordinator(t, time.Minute)
	fresh, err := restarted.Register("newcomer", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.WorkerID == stale.WorkerID {
		t.Fatalf("restarted coordinator reissued %s", stale.WorkerID)
	}
	enqueue(restarted, testJob(t, 0))
	if err := restarted.Heartbeat(stale.WorkerID); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("stale heartbeat: err = %v, want ErrUnknownWorker", err)
	}
	if jobs, err := restarted.Lease(stale.WorkerID, 1); !errors.Is(err, ErrUnknownWorker) || len(jobs) != 0 {
		t.Errorf("stale lease: %d jobs, err = %v; want ErrUnknownWorker", len(jobs), err)
	}
	if ws := restarted.Workers(); len(ws) != 1 || ws[0].ID != fresh.WorkerID {
		t.Errorf("registry after stale calls: %+v, want only %s", ws, fresh.WorkerID)
	}
	// The survivor's recovery: re-register, get an id of its own.
	again, err := restarted.Register("survivor", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.WorkerID == fresh.WorkerID || again.WorkerID == stale.WorkerID {
		t.Errorf("re-registration got %s (fresh %s, stale %s)", again.WorkerID, fresh.WorkerID, stale.WorkerID)
	}
	if ws := restarted.Workers(); len(ws) != 2 {
		t.Errorf("workers after re-registration: %+v, want 2", ws)
	}
}

// poolJob builds the n-th distinct run of one workload: the configuration
// name sets the content key apart, the instruction budget sets workloads
// apart.
func poolJob(t testing.TB, program string, insts uint64, n int) results.Job {
	t.Helper()
	cfg := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	cfg.Name = fmt.Sprintf("%s-%d", cfg.Name, n)
	j, err := results.NewJob(results.NewRequest(harness.Request{
		Config: cfg, Workload: workload.Single(program), Insts: insts, Warmup: 100,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestStarvationBound: a single run enqueued behind a large group of
// another workload, which keeps arriving after it, starts before every
// later arrival on a local worker (its lease of one takes the oldest job)
// and is overtaken by fewer than one lease's worth of them on a remote
// one (a lease fills up with the oldest job's group, but always starts
// from the oldest job).
func TestStarvationBound(t *testing.T) {
	const before, after, batch = 10, 100, 8
	fill := func(c *Coordinator) (lone results.Job, later map[string]bool) {
		n := 0
		for ; n < before; n++ {
			enqueue(c, poolJob(t, "gcc", 1000, n))
		}
		lone = poolJob(t, "swim", 1000, n)
		enqueue(c, lone)
		later = make(map[string]bool, after)
		for n++; len(later) < after; n++ {
			j := poolJob(t, "gcc", 1000, n)
			later[j.Key] = true
			enqueue(c, j)
		}
		return lone, later
	}

	t.Run("local", func(t *testing.T) {
		c, _ := newTestCoordinator(t, time.Minute)
		lone, later := fill(c)
		reg, err := c.Register("local-1", 1, true)
		if err != nil {
			t.Fatal(err)
		}
		for {
			got, err := c.Lease(reg.WorkerID, 1)
			if err != nil || len(got) != 1 {
				t.Fatalf("local lease: %d jobs, %v", len(got), err)
			}
			if got[0].Key == lone.Key {
				return
			}
			if later[got[0].Key] {
				t.Fatal("a later arrival started before the lone run")
			}
			c.Complete(reg.WorkerID, got[0].Key)
		}
	})
	t.Run("lease", func(t *testing.T) {
		c, _ := newTestCoordinator(t, time.Minute)
		lone, later := fill(c)
		reg, err := c.Register("w", batch, false)
		if err != nil {
			t.Fatal(err)
		}
		overtook := 0
		for {
			got, err := c.Lease(reg.WorkerID, batch)
			if err != nil || len(got) == 0 {
				t.Fatalf("the lone run was never granted: %d jobs, %v", len(got), err)
			}
			for _, j := range got {
				if j.Key == lone.Key {
					if overtook >= batch {
						t.Errorf("%d later arrivals were granted before the lone run, bound is one lease (%d) less one", overtook, batch)
					}
					return
				}
				if later[j.Key] {
					overtook++
				}
				c.Complete(reg.WorkerID, j.Key)
			}
		}
	})
}

// TestLeaseCostIndependentOfPoolSize: a grant pops its jobs from the
// workload index, so what a lease allocates does not grow with what is
// pending (it used to format a workload key per pending job per group).
func TestLeaseCostIndependentOfPoolSize(t *testing.T) {
	perLease := func(pending int) float64 {
		c, _ := newTestCoordinator(t, time.Minute)
		reg, err := c.Register("w", 4, false)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < pending; n++ {
			// 100 runs per workload, the workloads arriving interleaved.
			if !enqueue(c, poolJob(t, "gcc", uint64(1000+n%(pending/100)), n)) {
				t.Fatalf("enqueue %d refused", n)
			}
		}
		return testing.AllocsPerRun(50, func() {
			got, err := c.Lease(reg.WorkerID, 8)
			if err != nil || len(got) != 8 {
				t.Fatalf("lease: %d jobs, %v", len(got), err)
			}
			for _, j := range got {
				c.Complete(reg.WorkerID, j.Key)
			}
		})
	}
	small, large := perLease(500), perLease(5000)
	t.Logf("allocations per lease of 8: %.0f over 500 pending, %.0f over 5000", small, large)
	if large > small || large > 16 {
		t.Errorf("a lease allocates %.0f times over 5000 pending jobs, %.0f over 500: want equal and small", large, small)
	}
}

// TestEnqueueIsBounded: a full pool refuses a job outright or, asked to
// wait, takes it as soon as a consumer makes room; Stop releases a waiter.
func TestEnqueueIsBounded(t *testing.T) {
	c, _ := newBoundedCoordinator(t, time.Minute, 2)
	for n := 0; n < 2; n++ {
		if err := c.TryEnqueue(poolJob(t, "gcc", 1000, n)); err != nil {
			t.Fatalf("enqueue %d: %v", n, err)
		}
	}
	if err := c.TryEnqueue(poolJob(t, "gcc", 1000, 2)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("third job into a pool of two: %v, want ErrPoolFull", err)
	}
	third, fourth := poolJob(t, "gcc", 1000, 2), poolJob(t, "gcc", 1000, 3)
	waited := make(chan error, 2)
	go func() { waited <- c.Enqueue(third) }()
	select {
	case err := <-waited:
		t.Fatalf("a waiting enqueue returned on a full pool: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	reg, err := c.Register("w", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Lease(reg.WorkerID, 1); err != nil || len(got) != 1 {
		t.Fatalf("lease: %d jobs, %v", len(got), err)
	}
	if err := <-waited; err != nil {
		t.Fatalf("enqueue after room was made: %v", err)
	}
	go func() { waited <- c.Enqueue(fourth) }()
	time.Sleep(20 * time.Millisecond)
	c.Stop()
	if err := <-waited; err == nil {
		t.Fatal("a stopped coordinator took a waiting job")
	}
}

// TestPoolUnderContention drives the bounded pool from every side at once
// — waiting feeders, local workers waiting in their leases, a leasing
// remote worker — and requires every job to come out exactly once (run it
// with -race).
func TestPoolUnderContention(t *testing.T) {
	const feeders, perFeeder, bound = 4, 60, 8
	c, _ := newBoundedCoordinator(t, time.Minute, bound)
	reg, err := c.Register("remote", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([][]results.Job, feeders)
	for f := range jobs {
		for n := 0; n < perFeeder; n++ {
			jobs[f] = append(jobs[f], poolJob(t, "gcc", uint64(1000+n%5), f*perFeeder+n))
		}
	}

	var mu sync.Mutex
	seen := make(map[string]int)
	took := func(key string) {
		mu.Lock()
		seen[key]++
		mu.Unlock()
	}
	var producers, consumers sync.WaitGroup
	for f := range jobs {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for _, j := range WorkloadMajor(jobs[f]) {
				if err := c.Enqueue(j); err != nil {
					t.Errorf("enqueue: %v", err)
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		local, err := c.Register(fmt.Sprintf("local-%d", w), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				got, err := c.Lease(local.WorkerID, 1)
				if err != nil {
					return // stopped and drained
				}
				for _, j := range got {
					if c.Complete(local.WorkerID, j.Key) {
						took(j.Key)
					}
				}
			}
		}()
	}
	stopLeasing := make(chan struct{})
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		for {
			select {
			case <-stopLeasing:
				return
			default:
			}
			got, err := c.Lease(reg.WorkerID, 3)
			if err != nil {
				return // stopped
			}
			for _, j := range got {
				if c.Complete(reg.WorkerID, j.Key) {
					took(j.Key)
				}
			}
		}
	}()

	producers.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Pending+c.Stats().Leased > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(stopLeasing)
	c.Stop()
	consumers.Wait()
	if len(seen) != feeders*perFeeder {
		t.Errorf("%d distinct jobs came out, want %d", len(seen), feeders*perFeeder)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("job %s came out %d times", key, n)
		}
	}
}
