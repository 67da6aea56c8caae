package dse

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/trace"
)

// funnelInsts and funnelWarmup are the funnel's harness accounting.
const funnelInsts, funnelWarmup = 30_000, 3_000

// funnel runs the three-tier exploration (twin → sampled → exact) of
// twinSpace over its own store and profile cache, with the given
// evaluation parallelism.
func funnel(t *testing.T, progs []string, workers int) (*Report, *harness.ProfileCache) {
	t.Helper()
	profiles := harness.NewProfileCache("")
	rep, err := Explore(Options{
		Space:       twinSpace(),
		Strategy:    &GridStrategy{},
		Evaluator:   &SimEvaluator{Programs: progs, Insts: funnelInsts, Warmup: funnelWarmup, Store: results.NewMemoryLRU(256)},
		Concurrency: workers,
		Sampling:    harness.Sampling{Interval: 3_000, Window: 500, Warm: 200},
		Twin:        &TwinOptions{Mode: TwinOn, Programs: progs, Insts: funnelInsts, Warmup: funnelWarmup, Profiles: profiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, profiles
}

// TestTwinProfilesBuildConcurrently: tier 1 profiles the space's distinct
// programs on every worker before it scores, and that changes nothing a
// caller can see — the report is byte-identical to the one-worker
// exploration's, and each program is summarized exactly once.
func TestTwinProfilesBuildConcurrently(t *testing.T) {
	progs := []string{"gcc", "swim", "mcf", "synth(ilp=6.0,ws=64K,br=0.02)"}
	serial, _ := funnel(t, progs, 1)
	parallel, profiles := funnel(t, progs, 4)
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("report differs between 1 and 4 workers:\n%s\n%s", a, b)
	}
	if st := profiles.Stats(); st.Misses != uint64(len(progs)) || st.Entries != len(progs) {
		t.Errorf("profile cache = %+v, want %d profiles each built once", st, len(progs))
	}
}

// TestExploreTraceMemoryFollowsWorkers is the funnel's memory gate: the
// in-process exploration holds no trace of its own. The twin summarizes
// private generator streams, and each simulated tier is one GridRuns call
// whose per-run holds free a program's trace after its last run. Resident
// traces therefore never exceed the GridRuns workers' plus one run of
// slack. Each program is materialized once per simulated tier (sampled,
// exact), and nothing is resident or held when Explore returns. An
// exploration holding the whole suite peaks at all four programs.
func TestExploreTraceMemoryFollowsWorkers(t *testing.T) {
	prev := harness.DefaultTraceCache
	harness.DefaultTraceCache = harness.NewTraceCache(64 << 20)
	t.Cleanup(func() { harness.DefaultTraceCache = prev })
	const workers = 2 // the GridRuns pool: GOMAXPROCS
	procs := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })

	progs := []string{"gcc", "swim", "mcf", "synth(ilp=6.0,ws=64K,br=0.02)"}
	rep, _ := funnel(t, progs, workers)
	if rep.SampledSims == 0 || rep.ExactConfirms == 0 {
		t.Fatalf("the funnel skipped a tier: %+v", rep)
	}
	st := harness.DefaultTraceCache.Stats()
	widest := (funnelInsts + funnelWarmup) * uint64(trace.RecBytes)
	if limit := (workers + 1) * widest; st.PeakBytes == 0 || st.PeakBytes > limit {
		t.Errorf("PeakBytes = %d, want within (workers+1) × widest stream = %d", st.PeakBytes, limit)
	}
	if want := 2 * uint64(len(progs)); st.Misses != want {
		t.Errorf("trace cache misses = %d, want %d: one materialization per program per simulated tier", st.Misses, want)
	}
	if st.Hits+st.Misses != uint64(rep.SimsRun) {
		t.Errorf("trace cache hits+misses = %d, want %d: one Stream call per simulation, none for profiling", st.Hits+st.Misses, rep.SimsRun)
	}
	if st.Entries != 0 || st.Held != 0 || st.Bytes != 0 || st.Dropped != st.Misses {
		t.Errorf("after Explore returned: %+v, want nothing resident or held", st)
	}
}

// TestExploreHoldsTracesAcrossRounds: a multi-round search (here a climb,
// ringsim explore -strategy climb) over the in-process evaluator is one
// GridRuns call per round, so the exploration holds its suite between
// rounds: each program is materialized once per exploration, not once
// per round, and everything is let go when Explore returns.
func TestExploreHoldsTracesAcrossRounds(t *testing.T) {
	prev := harness.DefaultTraceCache
	harness.DefaultTraceCache = harness.NewTraceCache(64 << 20)
	t.Cleanup(func() { harness.DefaultTraceCache = prev })

	progs := []string{"gcc", "swim"}
	rep, err := Explore(Options{
		Space:     testSpace(),
		Strategy:  &ClimberStrategy{Seeds: 2, MaxRounds: 8},
		Evaluator: &SimEvaluator{Programs: progs, Insts: 1_500, Warmup: 300, Store: results.NewMemoryLRU(256)},
		Seed:      3,
		Twin:      &TwinOptions{Mode: TwinOff, Programs: progs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 2 {
		t.Fatalf("the climb ran %d round(s), want several", rep.Rounds)
	}
	st := harness.DefaultTraceCache.Stats()
	if st.Misses != uint64(len(progs)) {
		t.Errorf("trace cache misses = %d over %d rounds, want %d: one materialization per program", st.Misses, rep.Rounds, len(progs))
	}
	if st.Entries != 0 || st.Held != 0 || st.Bytes != 0 {
		t.Errorf("after Explore returned: %+v, want nothing resident or held", st)
	}
}
