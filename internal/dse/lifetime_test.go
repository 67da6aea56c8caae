package dse

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
	"repro/internal/results"
)

// funnel runs the three-tier exploration (twin → sampled → exact) of
// twinSpace over its own store and profile cache, with the given
// evaluation parallelism.
func funnel(t *testing.T, progs []string, workers int) (*Report, *harness.ProfileCache) {
	t.Helper()
	const insts, warmup = 30_000, 3_000
	profiles := harness.NewProfileCache(nil, "")
	rep, err := Explore(Options{
		Space:       twinSpace(),
		Strategy:    &GridStrategy{},
		Evaluator:   &SimEvaluator{Programs: progs, Insts: insts, Warmup: warmup, Store: results.NewMemoryLRU(256)},
		Concurrency: workers,
		Sampling:    harness.Sampling{Interval: 3_000, Window: 500, Warm: 200},
		Twin:        &TwinOptions{Mode: TwinOn, Programs: progs, Insts: insts, Warmup: warmup, Profiles: profiles},
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

// TestExploreHoldsTracesAcrossTiers: the exploration holds its programs
// from the first profile to the last exact confirmation, so the three
// tiers share one materialization per program, and lets everything go
// when it returns.
func TestExploreHoldsTracesAcrossTiers(t *testing.T) {
	prev := harness.DefaultTraceCache
	harness.DefaultTraceCache = harness.NewTraceCache(64 << 20)
	t.Cleanup(func() { harness.DefaultTraceCache = prev })

	progs := []string{"gcc", "swim", "mcf"}
	rep, _ := funnel(t, progs, 2)
	if rep.SampledSims == 0 || rep.ExactConfirms == 0 {
		t.Fatalf("the funnel skipped a tier: %+v", rep)
	}
	st := harness.DefaultTraceCache.Stats()
	if st.Misses != uint64(len(progs)) {
		t.Errorf("trace cache misses = %d, want %d: one materialization per program across all three tiers", st.Misses, len(progs))
	}
	if want := uint64(rep.SimsRun); st.Hits != want {
		t.Errorf("trace cache hits = %d, want %d: every simulation replays the profiled trace", st.Hits, want)
	}
	if st.Entries != 0 || st.Held != 0 || st.Bytes != 0 || st.Dropped != uint64(len(progs)) {
		t.Errorf("after Explore returned: %+v, want nothing resident or held", st)
	}
}
