package results

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// goldenSynthSpec is a non-canonical spelling of the ISSUE's example
// scenario; goldenSynthCanonical is the one spelling every layer must
// agree on. The pinned key is what that scenario hashes to in every
// result store — if either constant changes, deployed caches orphan
// their synth entries, exactly like a SchemaVersion break.
const (
	goldenSynthSpec      = "synth(ws=4194304, ilp=8.0, br=0.12, ld=0.28, st=0.12, stride=0.6, phases=3)@11"
	goldenSynthCanonical = "synth(ilp=8,br=0.12,ws=4M,ld=0.28,st=0.12,stride=0.6,phases=3)@11"
	goldenSynthKey       = "f76cf963769dd123af0c4164255debabf68138fcd4718578b25aed13c4ab6e68"
)

func goldenSynthRequest(t *testing.T) harness.Request {
	t.Helper()
	spec, err := workload.ParseSpec(goldenSynthSpec)
	if err != nil {
		t.Fatal(err)
	}
	return harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Workload: spec,
		Insts:    10_000,
		Warmup:   2_000,
	}
}

// TestGoldenSynthContentHash pins the canonicalization and content key
// of a synthetic request: equal scenarios must keep hashing to equal
// keys across releases, or every cached synth result is orphaned.
func TestGoldenSynthContentHash(t *testing.T) {
	req := goldenSynthRequest(t)
	if got := req.Workload.Name(); got != goldenSynthCanonical {
		t.Errorf("canonical spelling changed:\n got %s\nwant %s", got, goldenSynthCanonical)
	}
	key, err := NewRequest(req).Key()
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenSynthKey {
		t.Errorf("content hash of the golden synth request changed:\n got %s\nwant %s\n"+
			"(if intentional, bump results.SchemaVersion and repin)", key, goldenSynthKey)
	}
}

// TestGoldenSynthStats pins the simulated outcome of the golden synth
// request. Synthetic workloads are pure functions of (canonical spec,
// seed): any drift here means previously cached synth records no longer
// describe what the simulator would produce, silently poisoning every
// store keyed by the unchanged request hash.
func TestGoldenSynthStats(t *testing.T) {
	const (
		goldenCycles    = 11_814
		goldenCommitted = 9_999
	)
	run := harness.Execute(goldenSynthRequest(t))
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Stats.Cycles != goldenCycles || run.Stats.Committed != goldenCommitted {
		t.Errorf("golden synth run drifted: cycles=%d committed=%d, want cycles=%d committed=%d\n"+
			"(a deliberate generator change must bump results.SchemaVersion so stale cached synth results are not served)",
			run.Stats.Cycles, run.Stats.Committed, goldenCycles, goldenCommitted)
	}
}

// TestWorkingSetSweepFromSpecs: a scenario axis is swept from spec
// strings alone, with no code per scenario. Every point runs, records
// carry the canonical workload name (ws=1M is the default, so
// "synth(ws=1M)" is "synth"), and each point is a different machine load.
func TestWorkingSetSweepFromSpecs(t *testing.T) {
	specs := []string{"synth(ws=64K)", "synth(ws=1M)", "synth(ws=16M)", "synth(ws=16M,phases=4)"}
	want := []string{"synth(ws=64K)", "synth", "synth(ws=16M)", "synth(ws=16M,phases=4)"}
	reqs, err := harness.Expand([]core.Config{core.MustPaperConfig(core.ArchRing, 8, 2, 1)}, specs, 10_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	ipcs := map[float64]string{}
	for i, o := range Run(nil, reqs, 2) {
		if o.Failed() || o.Hit {
			t.Fatalf("%s: failed %q, hit %v", specs[i], o.Err, o.Hit)
		}
		if o.Program != want[i] {
			t.Errorf("%s: record names %q, want %q", specs[i], o.Program, want[i])
		}
		if prev, dup := ipcs[o.Stats.IPC()]; dup {
			t.Errorf("%s and %s ran at the same IPC %.4f", prev, specs[i], o.Stats.IPC())
		}
		ipcs[o.Stats.IPC()] = specs[i]
	}
}

// TestFairnessStudySecondPassSimulatesNothing: a multi-programmed
// fairness study (synth-random mixes, each followed by its single-stream
// baselines, on ring and conventional machines) run twice over one store
// simulates each distinct key once on the first pass and nothing on the
// second, which serves the same records.
func TestFairnessStudySecondPassSimulatesNothing(t *testing.T) {
	var reqs []harness.Request
	for _, arch := range []core.ArchKind{core.ArchRing, core.ArchConv} {
		cfg := core.MustPaperConfig(arch, 8, 2, 1)
		for i := uint64(1); i <= 2; i++ {
			spec := workload.Spec{Streams: []workload.StreamSpec{
				{Program: "synth-random", Seed: i},
				{Program: "synth-random", Seed: i + 1},
			}}
			req := harness.Request{Config: cfg, Workload: spec, Insts: 6_000, Warmup: 1_000}
			reqs = append(append(reqs, req), harness.BaselineRequests(req)...)
		}
	}
	store := NewMemoryLRU(64)
	var first []Outcome
	for pass, wantSims := range []int{10, 0} { // 12 requests, 10 distinct keys
		outs := Run(store, reqs, 2)
		sims := 0
		for i, o := range outs {
			if o.Failed() || o.PutErr != nil {
				t.Fatalf("pass %d, %s: %q, put %v", pass+1, o.Program, o.Err, o.PutErr)
			}
			if !o.Hit {
				sims++
			}
			if first != nil && !reflect.DeepEqual(o.Result, first[i].Result) {
				t.Errorf("pass 2 served a different record for %s on %s", o.Program, o.Config)
			}
		}
		if sims != wantSims {
			t.Errorf("pass %d simulated %d of %d runs, want %d", pass+1, sims, len(outs), wantSims)
		}
		for k := 0; k < len(outs); k += 3 {
			if _, err := harness.Fairness(outs[k].Stats, []float64{outs[k+1].Stats.IPC(), outs[k+2].Stats.IPC()}); err != nil {
				t.Fatalf("pass %d, %s: %v", pass+1, outs[k].Program, err)
			}
		}
		first = outs
	}
}
