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

// newTestCoordinator wires a coordinator onto a fake clock with a slow
// real-time sweeper, so tests drive expiry deterministically through
// Lease calls (which sweep inline).
func newTestCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	c := NewCoordinator(CoordinatorOptions{
		LeaseTTL:   ttl,
		SweepEvery: time.Hour, // expiry driven via Lease, not wall time
		now:        clk.now,
	})
	t.Cleanup(c.Stop)
	return c, clk
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
	reg, err := c.Register("w1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if reg.WorkerID == "" || reg.LeaseTTLMillis != 60_000 {
		t.Fatalf("register: %+v", reg)
	}

	jobs := make([]results.Job, 5)
	for i := range jobs {
		jobs[i] = testJob(t, i)
		if !c.Enqueue(jobs[i]) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	// Duplicate keys are refused while owned.
	if c.Enqueue(jobs[0]) {
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
	reg, _ := c.Register("dying", 4)
	j := testJob(t, 0)
	c.Enqueue(j)
	got, err := c.Lease(reg.WorkerID, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("lease: %v, %d jobs", err, len(got))
	}

	// Within the TTL nothing moves: a second worker sees no work.
	reg2, _ := c.Register("healthy", 4)
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
	reg, _ := c.Register("ghost", 2)
	j := testJob(t, 0)
	c.Enqueue(j)
	if got, _ := c.Lease(reg.WorkerID, 1); len(got) != 1 {
		t.Fatal("lease failed")
	}
	clk.advance(3 * time.Minute)
	// Any lease call sweeps: the ghost is dropped, its lease requeued.
	reg2, _ := c.Register("live", 2)
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

func TestNextDrainsThenStops(t *testing.T) {
	c, _ := newTestCoordinator(t, time.Minute)
	keys := make(map[string]bool)
	for i := 0; i < 3; i++ {
		j := testJob(t, i)
		keys[j.Key] = true
		c.Enqueue(j)
	}
	done := make(chan []string)
	go func() {
		var got []string
		for {
			j, ok := c.Next()
			if !ok {
				done <- got
				return
			}
			got = append(got, j.Key)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	select {
	case got := <-done:
		if len(got) != 3 {
			t.Fatalf("local pop drained %d jobs, want 3", len(got))
		}
		for _, k := range got {
			if !keys[k] {
				t.Errorf("popped unknown key %s", k)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not return after Stop")
	}
	if c.Enqueue(testJob(t, 9)) {
		t.Error("Enqueue accepted after Stop")
	}
	if _, err := c.Register("late", 1); err == nil {
		t.Error("Register accepted after Stop")
	}
}

func TestWorkersStatusView(t *testing.T) {
	c, clk := newTestCoordinator(t, time.Minute)
	var ids [3]string
	for i := range ids {
		reg, err := c.Register(fmt.Sprintf("w%d", i), i+1)
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
	})
	t.Cleanup(c.Stop)

	jb := testJob(t, 1)
	if !c.Enqueue(jb) {
		t.Fatal("enqueue refused")
	}
	reg, err := c.Register("crashy", 1)
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
	if !c.Enqueue(jb) {
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
	reg, err := c.Register("w1", 4)
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
		if !c.Enqueue(testJobFor(t, v.prog, v.cl, v.iw)) {
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
	stale, err := old.Register("survivor", 1)
	if err != nil {
		t.Fatal(err)
	}
	old.Stop()

	restarted, _ := newTestCoordinator(t, time.Minute)
	fresh, err := restarted.Register("newcomer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.WorkerID == stale.WorkerID {
		t.Fatalf("restarted coordinator reissued %s", stale.WorkerID)
	}
	restarted.Enqueue(testJob(t, 0))
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
	again, err := restarted.Register("survivor", 1)
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
