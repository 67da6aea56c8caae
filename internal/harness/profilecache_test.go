package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/workload"
)

// TestProfileCacheDeterminismUnderPooling: concurrent requests for one
// key — the shape a twin-gated exploration produces when many candidates
// score the same workload while the machine pool is busy simulating —
// must compute exactly once and hand every caller the identical profile.
func TestProfileCacheDeterminismUnderPooling(t *testing.T) {
	pc := NewProfileCache("")
	const callers = 8
	var wg sync.WaitGroup
	encoded := make([]string, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := pc.Profile("gcc", 1, 10_000)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := p.Encode()
			if err != nil {
				errs[i] = err
				return
			}
			encoded[i] = string(b)
		}(i)
	}
	// Keep the simulator busy on the same workload concurrently: pooling
	// must not perturb the summary.
	cfg := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	spec, err := workload.ParseSpec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if run := Execute(Request{Config: cfg, Workload: spec, Insts: 5_000, Warmup: 1_000}); run.Err != nil {
		t.Fatal(run.Err)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if encoded[i] != encoded[0] {
			t.Fatalf("caller %d saw a different profile", i)
		}
	}
	st := pc.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (in-flight dedup)", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}

	// A fresh cache recomputing from scratch must agree byte-for-byte:
	// the profile is content, not an artifact of arrival order.
	fresh := NewProfileCache("")
	p, err := fresh.Profile("gcc", 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != encoded[0] {
		t.Error("fresh cache computed a different profile")
	}
}

// TestProfileCacheDiskLayer: with a directory attached, profiles persist
// content-addressed and a second cache (a restart, or another fleet
// process sharing the directory) loads them without recomputing.
func TestProfileCacheDiskLayer(t *testing.T) {
	dir := t.TempDir()
	a := NewProfileCache(filepath.Join(dir, "profiles"))
	if err := a.SetDir(filepath.Join(dir, "profiles")); err != nil {
		t.Fatal(err)
	}
	p, err := a.Profile("swim", 2, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	onDisk := filepath.Join(dir, "profiles", p.Key()+".json")
	got, err := os.ReadFile(onDisk)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("persisted profile differs from the computed one")
	}

	b := NewProfileCache(filepath.Join(dir, "profiles"))
	q, err := b.Profile("swim", 2, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(qb) != string(want) {
		t.Error("disk-loaded profile differs from the computed one")
	}
	st := b.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("second cache: disk hits %d, misses %d; want 1, 0", st.DiskHits, st.Misses)
	}

	// A corrupt entry is recomputed and healed, not served.
	if err := os.WriteFile(onDisk, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewProfileCache(filepath.Join(dir, "profiles"))
	r, err := c.Profile("swim", 2, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(rb) != string(want) {
		t.Error("recomputed profile differs after corruption")
	}
	if healed, err := os.ReadFile(onDisk); err != nil || string(healed) != string(want) {
		t.Errorf("corrupt entry not healed on disk (err %v)", err)
	}
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCachedProfileRetainsOnlyItself: a cached profile keeps nothing but
// itself alive — not its summarizer's line map, Fenwick tree and
// predictor (4–5 MB for mcf at 275k instructions when Finish returned a
// pointer into the summarizer), and not a trace materialized just to be
// read once: profiling leaves the trace cache untouched.
func TestCachedProfileRetainsOnlyItself(t *testing.T) {
	prev := DefaultTraceCache
	tc := NewTraceCache(0)
	DefaultTraceCache = tc
	t.Cleanup(func() { DefaultTraceCache = prev })
	pc := NewProfileCache("")
	before := liveHeap()
	if _, err := pc.Profile("mcf", 0, 275_000); err != nil {
		t.Fatal(err)
	}
	if retained := liveHeap() - before; retained > 1<<20 {
		t.Errorf("a cached profile retains %d bytes, want under 1 MB", retained)
	}
	runtime.KeepAlive(pc)
	if st := tc.Stats(); st.Hits != 0 || st.Misses != 0 || st.PeakBytes != 0 {
		t.Errorf("profiling touched the trace cache: %+v", st)
	}
}

// TestProfileSpecMatchesHarnessAccounting: the profile window must equal
// what Execute simulates — warm-up share plus measured budget per stream
// — or the twin scores a different trace than the simulator runs.
func TestProfileSpecMatchesHarnessAccounting(t *testing.T) {
	pc := NewProfileCache("")
	spec, err := workload.ParseSpec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pc.ProfileSpec(spec, 10_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts != 12_000 {
		t.Errorf("single-stream profile covers %d insts, want 12000 (warmup+insts)", p.Insts)
	}
	multi, err := workload.ParseSpec("gcc+swim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := pc.ProfileSpec(multi, 10_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	// Each stream runs the full measured budget plus its warm-up share
	// (2 × 10_000 + 2_000), exactly Execute's multi-stream accounting.
	if m.Insts != 22_000 {
		t.Errorf("two-stream profile covers %d insts, want 22000", m.Insts)
	}
}

// TestProfileSpecRequestsStreamBudgets: a 1-, 2-, 3- or 4-stream spec
// profiles each stream over exactly the prefix StreamBudgets names — the
// trace length the simulations read, warm-up remainders included — under
// that length's predict.Key, so profiles cached on disk stay valid.
func TestProfileSpecRequestsStreamBudgets(t *testing.T) {
	const insts, warmup = 3_000, 1_001
	for _, w := range []string{"gcc", "gcc+swim@3", "mcf+art+gcc", "swim+gcc@2+art+mcf"} {
		spec, err := workload.ParseSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		pc := NewProfileCache("")
		p, err := pc.ProfileSpec(spec, insts, warmup)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		var total uint64
		for i, n := range StreamBudgets(spec, insts, warmup) {
			s := spec.Streams[i]
			want[predict.Key(s.Program, s.Seed, n)] = true
			total += n
		}
		got := make(map[string]bool)
		for key := range pc.entries {
			got[key] = true
		}
		if !reflect.DeepEqual(got, want) || p.Insts != total {
			t.Errorf("%s: profiled keys %v over %d instructions, want %v over %d", w, got, p.Insts, want, total)
		}
	}
}
