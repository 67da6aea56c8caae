package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// useFreshDefaultTraceCache swaps DefaultTraceCache for an empty one with
// the same budget for the length of the test, so counters and the
// high-water mark start from zero.
func useFreshDefaultTraceCache(t *testing.T) {
	t.Helper()
	prev := DefaultTraceCache
	DefaultTraceCache = NewTraceCache(64 << 20)
	t.Cleanup(func() { DefaultTraceCache = prev })
}

// expectEmpty requires that nothing is resident or held.
func expectEmpty(t *testing.T, what string, tc *TraceCache) {
	t.Helper()
	if st := tc.Stats(); st.Entries != 0 || st.Held != 0 || st.Insts != 0 || st.Bytes != 0 {
		t.Fatalf("%s: cache still holds %+v", what, st)
	}
}

// TestTraceCacheDropsAtLastRelease is the lifetime rule: an entry stays
// while anybody holds its stream and is freed by the last Release, not
// before; a view taken earlier still replays every record (M001 Held,
// M002 Dropped).
func TestTraceCacheDropsAtLastRelease(t *testing.T) {
	const prog = "synth-random"
	ref := reference(t, prog, 4, 3000)
	spec := oneStream(prog, 4)
	tc := NewTraceCache(0)

	tc.Hold(spec)
	tc.Hold(spec) // a second consumer
	tc.Hold(oneStream("gcc", 0))
	if st := tc.Stats(); st.Held != 2 || st.Entries != 0 {
		t.Fatalf("after three holds on two streams: %+v, want Held 2 and nothing resident", st)
	}
	view, err := tc.Stream(prog, 4, 3000)
	if err != nil {
		t.Fatal(err)
	}

	tc.Release(spec)
	if st := tc.Stats(); st.Entries != 1 || st.Held != 2 || st.Dropped != 0 || st.Bytes != packedBytes(t, prog, 4, 3000) {
		t.Fatalf("after the first release: %+v, want the entry still resident", st)
	}
	again, err := tc.Stream(prog, 4, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.(*trace.Replay); !ok || tc.Stats().Hits != 1 {
		t.Fatalf("a held stream was not replayed: %T, %+v", again, tc.Stats())
	}

	tc.Release(spec)
	if st := tc.Stats(); st.Entries != 0 || st.Held != 1 || st.Dropped != 1 || st.Bytes != 0 || st.Insts != 0 {
		t.Fatalf("after the last release: %+v, want the entry gone with its budget", st)
	}
	expectStream(t, "view taken before the drop", view, ref)

	tc.Release(oneStream("gcc", 0)) // held, never materialized: nothing to drop
	if st := tc.Stats(); st.Dropped != 1 {
		t.Fatalf("releasing an unmaterialized stream counted a drop: %+v", st)
	}
	expectEmpty(t, "after every release", tc)
}

// TestTraceCacheFailedStreamUnderHold: a held stream that cannot be
// materialized leaves no entry, its holders release without incident, and
// a failing run lets go of everything it held.
func TestTraceCacheFailedStreamUnderHold(t *testing.T) {
	tc := NewTraceCache(0)
	bad := oneStream("no-such-program", 0)
	tc.Hold(bad)
	tc.Hold(bad)
	for i := 0; i < 2; i++ {
		if _, err := tc.Stream("no-such-program", 0, 1000); err == nil {
			t.Fatal("unknown program materialized")
		}
	}
	if st := tc.Stats(); st.Entries != 0 || st.Insts != 0 || st.Held != 1 {
		t.Fatalf("failed stream left %+v", st)
	}
	tc.Release(bad)
	tc.Release(bad)
	expectEmpty(t, "after releasing the failed stream", tc)

	useFreshDefaultTraceCache(t)
	cfg := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	mix := workload.Spec{Streams: []workload.StreamSpec{{Program: "gcc"}, {Program: "no-such-program"}}}
	runs := GridRunsN([]Request{{Config: cfg, Workload: mix, Insts: 1000}, {Config: cfg, Workload: bad, Insts: 1000}}, 2)
	if runs[0].Err == nil || runs[1].Err == nil {
		t.Fatal("runs over an unknown program succeeded")
	}
	expectEmpty(t, "after the failed runs", DefaultTraceCache)
}

// TestTraceCacheFallbacksAndPeak: the budget bounds what is held at once,
// a request it turns away is counted (M004 Fallbacks) and served from a
// private generator, releasing makes room again, and PeakBytes (M003)
// keeps the high-water mark after the bytes are gone.
func TestTraceCacheFallbacksAndPeak(t *testing.T) {
	tc := NewTraceCache(5000)
	gcc, swim := oneStream("gcc", 0), oneStream("swim", 0)
	tc.Hold(gcc)
	tc.Hold(swim)
	if _, err := tc.Stream("gcc", 0, 4000); err != nil {
		t.Fatal(err)
	}
	s, err := tc.Stream("swim", 0, 2000) // 6000 > 5000 held at once
	if err != nil {
		t.Fatal(err)
	}
	expectStream(t, "fallback stream", s, reference(t, "swim", 0, 2000))
	gccBytes := packedBytes(t, "gcc", 0, 4000)
	if st := tc.Stats(); st.Fallbacks != 1 || st.Entries != 1 || st.Bytes != gccBytes {
		t.Fatalf("over budget: %+v, want one fallback and only gcc resident", st)
	}
	tc.Release(gcc)
	s, err = tc.Stream("swim", 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*trace.Replay); !ok {
		t.Fatalf("budget not returned at release: got a %T, want the shared replay", s)
	}
	tc.Release(swim)
	if st := tc.Stats(); st.Fallbacks != 1 || st.PeakBytes != gccBytes || st.Bytes != 0 {
		t.Fatalf("after the releases: %+v, want the 4000-record peak remembered", st)
	}
}

// TestTraceCacheConcurrentLifetimes: goroutines holding, reading and
// releasing overlapping mixes at once all read the right instructions,
// whichever of them materializes or frees a stream, and the books balance
// at the end. Run with -race.
func TestTraceCacheConcurrentLifetimes(t *testing.T) {
	progs := []string{"gcc", "swim", "synth-random", "mcf"}
	const n = 1500
	refs := make(map[string][]uint64, len(progs))
	for _, p := range progs {
		for _, in := range reference(t, p, 2, n) {
			refs[p] = append(refs[p], in.PC)
		}
	}
	tc := NewTraceCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				// Two neighbouring programs: every stream is shared by two
				// of the four mixes.
				a, b := progs[(g+round)%len(progs)], progs[(g+round+1)%len(progs)]
				mix := workload.Spec{Streams: []workload.StreamSpec{{Program: a, Seed: 2}, {Program: b, Seed: 2}}}
				tc.Hold(mix)
				for _, s := range mix.Streams {
					length := n - 100*(round%3)
					st, err := tc.Stream(s.Program, s.Seed, uint64(length))
					if err != nil {
						t.Error(err)
						break
					}
					for i := 0; i < length; i++ {
						in, err := st.Next()
						if err != nil || in.PC != refs[s.Program][i] {
							t.Errorf("%s: instruction %d: pc %#x, %v", s.Program, i, in.PC, err)
							break
						}
					}
				}
				tc.Release(mix)
			}
		}(g)
	}
	wg.Wait()
	expectEmpty(t, "after the concurrent holders", tc)
	if st := tc.Stats(); st.Dropped == 0 || st.Dropped != st.Misses {
		t.Fatalf("stats = %+v, want every materialized entry dropped again", st)
	}
}

// TestPooledMachineDropsItsTrace: a machine Execute hands back to the pool
// keeps nothing of its run's streams, so a trace its last holder released
// is garbage at the next collection instead of staying reachable through
// the pool (whose victim cache outlives one collection).
func TestPooledMachineDropsItsTrace(t *testing.T) {
	useFreshDefaultTraceCache(t)
	spec := oneStream("gcc", 0)
	req := Request{Config: core.MustPaperConfig(core.ArchRing, 4, 2, 1), Workload: spec, Insts: 5_000, Warmup: 1_000}
	DefaultTraceCache.Hold(spec)
	if run := Execute(req); run.Err != nil {
		t.Fatal(run.Err)
	}
	records := weakRecords(t, "gcc", 6_000)
	DefaultTraceCache.Release(spec)
	expectEmpty(t, "after the release", DefaultTraceCache)
	runtime.GC()
	if records.Value() != nil {
		t.Fatal("a released trace survived a collection: the pooled machine still references its streams")
	}
}

// weakRecords returns a weak pointer to the encoded records of the
// resident trace of prog: it goes nil once nothing references the trace's
// store. NextRec decodes into the cursor's own record, so the pointer is
// taken to the first byte of the segment the cursor reads, reached through
// its unexported field.
func weakRecords(t *testing.T, prog string, n uint64) weak.Pointer[byte] {
	t.Helper()
	s, err := DefaultTraceCache.Stream(prog, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s.(*trace.Replay)
	if !ok {
		t.Fatalf("%s is not resident: got a %T", prog, s)
	}
	if rec, _ := r.NextRec(); rec == nil {
		t.Fatalf("%s replays nothing", prog)
	}
	cur := reflect.ValueOf(r).Elem().FieldByName("cur")
	if cur.Kind() != reflect.Slice || cur.Len() == 0 {
		t.Fatalf("the cursor reads no segment: %v", cur)
	}
	return weak.Make((*byte)(cur.UnsafePointer()))
}

// mixShapeRequests is the benchmark's unique_mixes shape at a test-sized
// budget: 40 one-, 24 two- and 12 four-stream synthetic workloads, every
// stream with its own seed, each on the ring/conv pair.
func mixShapeRequests(t *testing.T, insts, warmup uint64) []Request {
	t.Helper()
	seed := 1
	stream := func() string {
		prog := "synth-random"
		if seed%2 == 0 {
			prog = "synth(ws=16M,stride=0.3,ilp=4)"
		}
		s := fmt.Sprintf("%s@%d", prog, seed)
		seed++
		return s
	}
	var specs []string
	for _, shape := range []struct{ streams, count int }{{1, 40}, {2, 24}, {4, 12}} {
		for i := 0; i < shape.count; i++ {
			spec := stream()
			for j := 1; j < shape.streams; j++ {
				spec += "+" + stream()
			}
			specs = append(specs, spec)
		}
	}
	cfgs := []core.Config{
		core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		core.MustPaperConfig(core.ArchConv, 8, 2, 1),
	}
	reqs, err := Expand(cfgs, specs, insts, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestGridTraceMemoryFollowsWorkers is the memory regression gate: over
// the 76-mix grid the resident traces never exceed what the workers have
// in hand — workers × the widest workload, plus one run of slack — every
// stream is built exactly once, and nothing is resident or held when the
// grid returns. A cache that keeps what it has seen peaks at the sum of
// all 136 streams, twelve times the bound.
func TestGridTraceMemoryFollowsWorkers(t *testing.T) {
	useFreshDefaultTraceCache(t)
	const insts, warmup, workers = 3000, 600, 2
	reqs := mixShapeRequests(t, insts, warmup)
	streams, widest := 0, uint64(0)
	for _, r := range reqs[:len(reqs)/2] { // one config's worth: each workload once
		var bytes uint64
		for i, b := range StreamBudgets(r.Workload, r.Insts, r.Warmup) {
			s := r.Workload.Streams[i]
			bytes += packedBytes(t, s.Program, s.Seed, int(b))
		}
		streams += len(r.Workload.Streams)
		widest = max(widest, bytes)
	}

	runs := GridRunsN(reqs, workers)
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Config.Name, r.Workload, r.Err)
		}
	}
	st := DefaultTraceCache.Stats()
	if limit := (workers + 1) * widest; st.PeakBytes == 0 || st.PeakBytes > limit {
		t.Errorf("PeakBytes = %d, want within (workers+1) × widest workload = %d", st.PeakBytes, limit)
	}
	if st.Misses != uint64(streams) || st.Hits != uint64(streams) {
		t.Errorf("misses/hits = %d/%d, want %d/%d: every stream built once and replayed once", st.Misses, st.Hits, streams, streams)
	}
	if st.Dropped != uint64(streams) || st.Fallbacks != 0 {
		t.Errorf("dropped/fallbacks = %d/%d, want %d/0", st.Dropped, st.Fallbacks, streams)
	}
	expectEmpty(t, "after GridRunsN", DefaultTraceCache)

}
