package harness_test

// Single-stream back-compat: the multi-programmed refactor must leave
// every historical single-program request untouched. The golden file was
// captured from the pre-refactor tree (all PaperConfigs × all programs at
// 30k + 6k instructions): this test replays the same grid through
// the refactored WorkloadSpec path and requires byte-identical result
// keys (so every existing disk cache still hits) and bit-identical
// core.Stats.

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// The budget testdata/golden_single_stream.json was recorded at; any
// other value changes every content key and statistic in it.
const (
	goldenInsts  = 30_000
	goldenWarmup = 6_000
)

type goldenEntry struct {
	Config  string          `json:"config"`
	Program string          `json:"program"`
	Key     string          `json:"key"`
	Stats   json.RawMessage `json:"stats"`
}

func loadGolden(t *testing.T) []goldenEntry {
	t.Helper()
	b, err := os.ReadFile("testdata/golden_single_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestSingleStreamBackCompat replays every golden entry as a one-stream
// WorkloadSpec and checks key and stats equality against the
// pre-refactor capture.
func TestSingleStreamBackCompat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper grid")
	}
	entries := loadGolden(t)
	if len(entries) != 10*len(workload.Names()) {
		t.Fatalf("golden has %d entries, want %d", len(entries), 10*len(workload.Names()))
	}
	configs := make(map[string]core.Config)
	for _, cfg := range harness.PaperConfigs() {
		configs[cfg.Name] = cfg
	}
	type job struct {
		e   goldenEntry
		req harness.Request
	}
	jobs := make([]job, 0, len(entries))
	for _, e := range entries {
		cfg, ok := configs[e.Config]
		if !ok {
			t.Fatalf("golden names unknown config %s", e.Config)
		}
		jobs = append(jobs, job{e: e, req: harness.Request{
			Config:   cfg,
			Workload: workload.Spec{Streams: []workload.StreamSpec{{Program: e.Program}}},
			Insts:    goldenInsts,
			Warmup:   goldenWarmup,
		}})
	}
	for _, j := range jobs {
		key, err := results.NewRequest(j.req).Key()
		if err != nil {
			t.Fatal(err)
		}
		if key != j.e.Key {
			t.Fatalf("%s/%s: content key changed: got %s, golden %s (existing caches would miss)",
				j.e.Config, j.e.Program, key, j.e.Key)
		}
	}
	// Decode golden stats into the current Stats type; unknown fields in
	// either direction would show up as a DeepEqual mismatch below
	// because golden PerStream is absent (nil) and single-stream runs
	// must keep it nil.
	for _, j := range jobs {
		var want core.Stats
		if err := json.Unmarshal(j.e.Stats, &want); err != nil {
			t.Fatal(err)
		}
		run := harness.Execute(j.req)
		if run.Err != nil {
			t.Fatalf("%s/%s: %v", j.e.Config, j.e.Program, run.Err)
		}
		if run.Stats.PerStream != nil {
			t.Fatalf("%s/%s: single-stream run grew a PerStream breakdown", j.e.Config, j.e.Program)
		}
		if !reflect.DeepEqual(run.Stats, want) {
			t.Fatalf("%s/%s: stats diverged from pre-refactor golden\n got %+v\nwant %+v",
				j.e.Config, j.e.Program, run.Stats, want)
		}
	}
}

// TestSingleStreamWireBytes pins the exact canonical encoding of a
// single-stream spec to the historical "program" form: no "streams" key,
// byte-equality with a literally-constructed pre-refactor encoding.
func TestSingleStreamWireBytes(t *testing.T) {
	cfg := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
	req := harness.Request{Config: cfg, Workload: workload.Single("gcc"), Insts: 1000, Warmup: 100}
	b, err := results.NewRequest(req).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); len(got) == 0 ||
		!json.Valid(b) ||
		containsKey(t, b, "streams") ||
		!containsKey(t, b, "program") {
		t.Fatalf("single-stream canonical encoding not in historical form: %s", b)
	}
	// A non-default stream must leave the shorthand: seeded single
	// streams and mixes encode under "streams" with "program" empty.
	req.Workload = workload.Spec{Streams: []workload.StreamSpec{{Program: "gcc", Seed: 7}}}
	b, err = results.NewRequest(req).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !containsKey(t, b, "streams") {
		t.Fatalf("seeded stream did not encode under streams: %s", b)
	}
}

// containsKey reports whether the canonical JSON object has the given
// top-level key.
func containsKey(t *testing.T, b []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}
