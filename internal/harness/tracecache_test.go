package harness

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reference generates the first n instructions of (program, seed) with no
// cache in the way.
func reference(t *testing.T, program string, seed uint64, n int) []isa.Inst {
	t.Helper()
	gen, err := workload.NewStream(program, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := trace.Collect(trace.NewLimit(gen, uint64(n)), n)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// oneStream is the single-stream workload of (program, seed).
func oneStream(program string, seed uint64) workload.Spec {
	return workload.Spec{Streams: []workload.StreamSpec{{Program: program, Seed: seed}}}
}

// packedBytes is what a store of (program, seed) holds once grown to each
// of lengths in turn, reserved the way the cache reserves: the bytes the
// cache must report for an entry grown the same way.
func packedBytes(t *testing.T, program string, seed uint64, lengths ...int) uint64 {
	t.Helper()
	gen, err := workload.NewStream(program, seed)
	if err != nil {
		t.Fatal(err)
	}
	var p trace.Packed
	for _, n := range lengths {
		p.Reserve(n)
		if err := p.Extend(gen, n); err != nil {
			t.Fatal(err)
		}
	}
	return p.Bytes()
}

// storeBytes sums what the resident entries' stores hold.
func storeBytes(tc *TraceCache) uint64 {
	tc.mu.Lock()
	var entries []*traceEntry
	for _, e := range tc.entries {
		entries = append(entries, e)
	}
	tc.mu.Unlock()
	var n uint64
	for _, e := range entries {
		e.mu.Lock()
		n += e.store.Bytes()
		e.mu.Unlock()
	}
	return n
}

// maxInstBytes bounds what a resident instruction costs: the store's
// encoding measures 5.8 to 6.6 bytes across the 26 programs, allocation
// slack included, against the 24 of a decoded record.
const maxInstBytes = 8

// expectStream drains s and compares it with want.
func expectStream(t *testing.T, what string, s trace.Stream, want []isa.Inst) {
	t.Helper()
	got, err := trace.Collect(s, 0)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestTraceCacheExtension: a view handed out before the entry grows is the
// same afterwards, and each growth continues the resident prefix from the
// entry's retained generator exactly.
func TestTraceCacheExtension(t *testing.T) {
	const prog = "synth(ws=16M,stride=0.3,ilp=4)"
	ref := reference(t, prog, 9, 6000)
	tc := NewTraceCache(0)
	tc.Hold(oneStream(prog, 9))

	early, err := tc.Stream(prog, 9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]isa.Inst, 0, 1000)
	for i := 0; i < 400; i++ {
		in, err := early.Next()
		if err != nil {
			t.Fatal(err)
		}
		half = append(half, in)
	}

	// Grow from the generator while the 1000-instruction view is open.
	grown, err := tc.Stream(prog, 9, 2500)
	if err != nil {
		t.Fatal(err)
	}
	expectStream(t, "grown to 2500", grown, ref[:2500])

	// And again, from where the generator stopped.
	past, err := tc.Stream(prog, 9, 6000)
	if err != nil {
		t.Fatal(err)
	}
	expectStream(t, "grown again to 6000", past, ref)

	// The view opened first saw none of that.
	rest, err := trace.Collect(early, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectStream(t, "outstanding 1000-instruction view", trace.NewSlice(append(half, rest...)), ref[:1000])

	st := tc.Stats()
	if want := packedBytes(t, prog, 9, 1000, 2500, 6000); st.Entries != 1 || st.Insts != 6000 || st.Bytes != want {
		t.Fatalf("stats after extension = %+v, want one entry of 6000 instructions, %d bytes", st, want)
	}
}

// TestTraceCacheBytesAreResident: Bytes is what the packed stores hold —
// exactly what a store grown the same way holds, a few bytes a record —
// not the reserved instruction count times a record size, and a stream
// the budget turned away adds nothing.
func TestTraceCacheBytesAreResident(t *testing.T) {
	tc := NewTraceCache(5000)
	if st := tc.Stats(); st.Bytes != 0 {
		t.Fatalf("empty cache reports %d bytes", st.Bytes)
	}
	for _, n := range []uint64{3000, 1000, 4000} {
		if _, err := tc.Stream("gcc", 0, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tc.Stream("swim", 0, 2000); err != nil { // over budget: private generator
		t.Fatal(err)
	}
	st := tc.Stats()
	want := packedBytes(t, "gcc", 0, 3000, 4000)
	if st.Entries != 1 || st.Insts != 4000 || st.Bytes != want || want > 4000*maxInstBytes {
		t.Fatalf("stats = %+v, want 1 entry, 4000 instructions, %d bytes (<= %d)", st, want, 4000*maxInstBytes)
	}
}

// TestTraceCacheFailedStreamReleasesBudget: a stream whose generator
// cannot be built (the build now happens under the entry's lock, after the
// budget was reserved) hands back everything it reserved and leaves no
// entry behind, so bad names cannot pin the budget.
func TestTraceCacheFailedStreamReleasesBudget(t *testing.T) {
	tc := NewTraceCache(10_000)
	for i := 0; i < 5; i++ {
		if _, err := tc.Stream("no-such-program", 0, 8000); err == nil {
			t.Fatal("unknown program materialized")
		}
	}
	if st := tc.Stats(); st.Entries != 0 || st.Insts != 0 || st.Bytes != 0 {
		t.Fatalf("failed streams left %+v behind", st)
	}
	s, err := tc.Stream("gcc", 0, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*trace.Replay); !ok {
		t.Fatalf("budget still pinned: got a %T, want the shared replay", s)
	}
}

// TestTraceCacheConcurrentFirstTouch: many goroutines touching new and
// shared streams at once — generators are built outside the cache-wide
// lock — all read the right instructions, and the books balance. Run with
// -race.
func TestTraceCacheConcurrentFirstTouch(t *testing.T) {
	progs := []string{"gcc", "swim", "synth-random", "no-such-program"}
	refs := make([][]isa.Inst, len(progs)-1)
	for i := range refs {
		refs[i] = reference(t, progs[i], 5, 3000)
	}
	tc := NewTraceCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pi := g % len(progs)
			n := 1000 + 500*(g/len(progs))
			s, err := tc.Stream(progs[pi], 5, uint64(n))
			if pi == len(progs)-1 {
				if err == nil {
					t.Error("unknown program materialized")
				}
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				in, err := s.Next()
				if err != nil || in != refs[pi][i] {
					t.Errorf("%s: instruction %d of %d: %+v, %v", progs[pi], i, n, in, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Which goroutine grows an entry, and by how much, varies from run to
	// run, and with it where the stores cut their segments: the books must
	// match the stores whatever the order.
	st := tc.Stats()
	if held := storeBytes(tc); st.Entries != 3 || st.Insts != 3*2500 || st.Bytes != held || held > 3*2500*maxInstBytes {
		t.Fatalf("stats = %+v, want 3 entries of 2500 instructions in the %d bytes the stores hold", st, held)
	}
}

// allocated reports the heap bytes f allocates (single goroutine).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTraceMaterializationAllocations is the allocation budget of the
// trace cache, in the style of core's TestSteadyStateAllocations:
// materializing n instructions allocates the bytes the entry then holds —
// at most maxInstBytes an instruction — plus at most one 32 KiB segment
// (the remainder cut off the last) and the segment list on top of building
// the generator: no up-front allocation, no append-doubling copies, no
// per-instruction garbage. Asking again for the same or a shorter prefix
// allocates only the cursor.
func TestTraceMaterializationAllocations(t *testing.T) {
	const n = 200_000
	const slack = 32<<10 + 16<<10 // the cut-off last segment; the segment list and cursor
	const prog = "synth(ws=16M,stride=0.3,ilp=4)"
	generator := allocated(func() {
		if _, err := workload.NewStream(prog, 3); err != nil {
			t.Fatal(err)
		}
	})
	tc := NewTraceCache(0)
	first := allocated(func() {
		if _, err := tc.Stream(prog, 3, n); err != nil {
			t.Fatal(err)
		}
	})
	held := tc.Stats().Bytes
	if held > maxInstBytes*n {
		t.Errorf("%d instructions hold %d bytes, want <= %d", n, held, maxInstBytes*n)
	}
	if limit := held + slack; first > generator+limit {
		t.Errorf("materializing %d instructions allocated %d bytes beyond the generator's %d, want <= %d",
			n, first-generator, generator, limit)
	}
	// Extension pays for the new records only.
	grow := allocated(func() {
		if _, err := tc.Stream(prog, 3, 2*n); err != nil {
			t.Fatal(err)
		}
	})
	added := tc.Stats().Bytes - held
	if added > maxInstBytes*n {
		t.Errorf("%d more instructions hold %d bytes, want <= %d", n, added, maxInstBytes*n)
	}
	if limit := added + slack; grow > limit {
		t.Errorf("extending by %d instructions allocated %d bytes, want <= %d", n, grow, limit)
	}
	for _, again := range []uint64{2 * n, n / 3} {
		avg := testing.AllocsPerRun(20, func() {
			if _, err := tc.Stream(prog, 3, again); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 2 {
			t.Errorf("a resident %d-instruction prefix costs %.1f allocations per Stream call, want <= 2", again, avg)
		}
	}
}
