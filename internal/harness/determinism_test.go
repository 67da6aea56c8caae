package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// freshRun simulates one request the way the seed harness did — a fresh
// generator-driven machine, no trace cache, no machine pool — and returns
// its statistics. It is the reference the optimized Execute path must
// reproduce bit-for-bit.
func freshRun(t *testing.T, req Request) core.Stats {
	t.Helper()
	prog := req.Workload.Streams[0].Program
	prof, err := workload.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(req.Config, trace.NewLimit(gen, req.Warmup+req.Insts))
	if err != nil {
		t.Fatal(err)
	}
	if req.Warmup > 0 {
		if err := m.RunCommitted(req.Warmup); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
	}
	st, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMachineReuseDeterminism drives every paper configuration through the
// production Execute path — shared materialized traces plus pooled,
// Reset-recycled machines — and requires statistics identical to a fresh
// generator-driven machine. Running all configs sequentially also forces
// pool recycling across different cluster counts and architectures, which
// is exactly the state-leak surface Reset must seal.
func TestMachineReuseDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper grid")
	}
	const insts, warmup = 12_000, 2_000
	programs := []string{"gcc", "swim"}
	for _, cfg := range PaperConfigs() {
		for _, prog := range programs {
			req := Request{Config: cfg, Workload: workload.Single(prog), Insts: insts, Warmup: warmup}
			want := freshRun(t, req)
			// Twice through the pool: the first run may construct, the
			// second is guaranteed to reuse a machine that just ran a
			// different (config, program) pair.
			for round := 0; round < 2; round++ {
				run := Execute(req)
				if run.Err != nil {
					t.Fatalf("%s/%s round %d: %v", cfg.Name, prog, round, run.Err)
				}
				if !reflect.DeepEqual(run.Stats, want) {
					t.Errorf("%s/%s round %d: pooled stats diverged\n got %+v\nwant %+v",
						cfg.Name, prog, round, run.Stats, want)
				}
			}
		}
	}
}

// TestTraceCacheSharesPrefix checks that materialized streams are exact
// prefixes: a short request replayed from the cache must yield the same
// instructions as a longer one, and both must match a fresh generator.
func TestTraceCacheSharesPrefix(t *testing.T) {
	tc := NewTraceCache(1 << 20)
	short, err := tc.Stream("gcc", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := tc.Stream("gcc", 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("gcc")
	gen, _ := workload.NewGenerator(prof)
	ref := trace.Stream(trace.NewLimit(gen, 5000))
	for i := 0; i < 5000; i++ {
		want, err := ref.Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := long.Next()
		if err != nil {
			t.Fatalf("long stream ended early at %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("inst %d: cached %+v != generated %+v", i, got, want)
		}
		if i < 1000 {
			gs, err := short.Next()
			if err != nil {
				t.Fatalf("short stream ended early at %d: %v", i, err)
			}
			if gs != want {
				t.Fatalf("inst %d: short view diverged", i)
			}
		}
	}
	if _, err := long.Next(); err != trace.ErrEnd {
		t.Fatalf("long stream did not end: %v", err)
	}
}

// TestTraceCacheBudgetFallback checks that an over-budget request falls
// back to a private generator with identical content.
func TestTraceCacheBudgetFallback(t *testing.T) {
	tc := NewTraceCache(100) // far below any real request
	s, err := tc.Stream("gcc", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("gcc")
	gen, _ := workload.NewGenerator(prof)
	ref := trace.NewLimit(gen, 1000)
	n := 0
	for {
		want, errW := ref.Next()
		got, errG := s.Next()
		if (errW != nil) != (errG != nil) {
			t.Fatalf("stream length mismatch at %d: %v vs %v", n, errW, errG)
		}
		if errW != nil {
			break
		}
		if got != want {
			t.Fatalf("inst %d differs under budget fallback", n)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("fallback stream yielded %d insts, want 1000", n)
	}
}

// TestTraceCacheRematerializeDeterminism: a stream freed at its last
// holder's release and asked for again is generated again, and the second
// materialization is the first one bit for bit — through the cache and
// through a whole simulation.
func TestTraceCacheRematerializeDeterminism(t *testing.T) {
	const prog = "synth-random"
	ref := reference(t, prog, 11, 4000)
	tc := NewTraceCache(0)
	for round := 0; round < 3; round++ {
		tc.Hold(oneStream(prog, 11))
		s, err := tc.Stream(prog, 11, 4000)
		if err != nil {
			t.Fatal(err)
		}
		expectStream(t, fmt.Sprintf("materialization %d", round), s, ref)
		tc.Release(oneStream(prog, 11))
	}
	if st := tc.Stats(); st.Misses != 3 || st.Hits != 0 || st.Dropped != 3 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 3 misses, 3 drops, nothing resident", st)
	}

	// Execute holds only for its own duration, so back-to-back lone runs
	// regenerate the trace each time and must agree exactly.
	req := Request{Config: core.MustPaperConfig(core.ArchRing, 4, 2, 1), Workload: oneStream(prog, 11), Insts: 4000, Warmup: 500}
	first, second := Execute(req), Execute(req)
	if first.Err != nil || second.Err != nil {
		t.Fatal(first.Err, second.Err)
	}
	if !reflect.DeepEqual(first.Stats, second.Stats) {
		t.Fatal("a regenerated trace simulated differently")
	}
}
