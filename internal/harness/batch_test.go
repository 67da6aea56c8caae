package harness

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestBatchedBitIdentity is the grouped-execution contract: running a
// request as a member of a GridRuns affinity group, on a parallel worker
// pool, must produce bit-identical statistics to running it alone through
// Execute — across every paper configuration, a sample of fixed and
// synthetic workloads, multi-stream mixes, and pooled-machine reuse (the
// grid runs twice; the second pass recycles machines the first put back).
func TestBatchedBitIdentity(t *testing.T) {
	names := workload.Names()
	wls := []string{
		names[0],
		names[len(names)-1],
		"synth(ilp=8,ws=64K,ld=0.28)",
		"synth(phases=3,plen=2000)@5",
		names[0] + "+" + names[len(names)-1],
		"synth-random@3+synth(ilp=8):5000@9",
	}
	reqs, err := Expand(PaperConfigs(), wls, 3000, 600)
	if err != nil {
		t.Fatal(err)
	}

	seq := make([]Run, len(reqs))
	for i := range reqs {
		seq[i] = Execute(reqs[i])
		if seq[i].Err != nil {
			t.Fatalf("sequential %s/%s: %v", seq[i].Config.Name, seq[i].Workload, seq[i].Err)
		}
	}

	for pass := 1; pass <= 2; pass++ {
		got := GridRuns(reqs, 16)
		if len(got) != len(seq) {
			t.Fatalf("pass %d: %d results, want %d", pass, len(got), len(seq))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("pass %d: batched %s/%s: %v", pass, got[i].Config.Name, got[i].Workload, got[i].Err)
			}
			if got[i].Workload != seq[i].Workload || got[i].Class != seq[i].Class {
				t.Fatalf("pass %d: result %d identity mismatch: got %s/%v want %s/%v",
					pass, i, got[i].Workload, got[i].Class, seq[i].Workload, seq[i].Class)
			}
			if !reflect.DeepEqual(got[i].Stats, seq[i].Stats) {
				t.Errorf("pass %d: %s/%s: batched stats diverge from sequential\n got: %+v\nwant: %+v",
					pass, got[i].Config.Name, got[i].Workload, got[i].Stats, seq[i].Stats)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestGridPoolOrder pins the order GridRunsN's workers take requests in:
// workload-major, keys in first-appearance order and requests in list
// order within a key, where a key is (canonical workload, insts, warmup,
// fidelity) — so differing budgets or fidelity split a workload, and two
// spellings of one spec do not. It also pins what the pool counts as
// shared.
func TestGridPoolOrder(t *testing.T) {
	mk := func(w string, insts, warmup uint64, sp Sampling) Request {
		spec, err := workload.ParseSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		return Request{Workload: spec, Insts: insts, Warmup: warmup, Sampling: sp}
	}
	exact := func(w string) Request { return mk(w, 100, 10, Sampling{}) }
	cases := []struct {
		name   string
		reqs   []Request
		want   []int
		shared BatchStats
	}{
		{"empty", nil, []int{}, BatchStats{}},
		{"all distinct", []Request{exact("gcc"), exact("swim"), exact("mcf")}, []int{0, 1, 2}, BatchStats{}},
		{"first appearance", []Request{exact("gcc"), exact("swim"), exact("gcc"), exact("mcf"), exact("swim")},
			[]int{0, 2, 1, 4, 3}, BatchStats{Groups: 2, GroupedRuns: 4}},
		{"config-major grid", []Request{exact("gcc"), exact("swim+mcf"), exact("art"), exact("gcc"), exact("swim+mcf"), exact("art")},
			[]int{0, 3, 1, 4, 2, 5}, BatchStats{Groups: 3, GroupedRuns: 6}},
		{"budgets split keys", []Request{mk("gcc", 100, 10, Sampling{}), mk("gcc", 200, 10, Sampling{}), mk("gcc", 100, 20, Sampling{}), mk("gcc", 100, 10, Sampling{})},
			[]int{0, 3, 1, 2}, BatchStats{Groups: 1, GroupedRuns: 2}},
		{"fidelity splits keys", []Request{exact("gcc"), mk("gcc", 100, 10, DefaultSampling), exact("gcc"), mk("gcc", 100, 10, DefaultSampling)},
			[]int{0, 2, 1, 3}, BatchStats{Groups: 2, GroupedRuns: 4}},
		{"one spec, two spellings", []Request{exact("synth(ilp=8,ws=64K)"), exact("gcc"), exact("synth(ws=64K,ilp=8)")},
			[]int{0, 2, 1}, BatchStats{Groups: 1, GroupedRuns: 2}},
	}
	for _, c := range cases {
		p := newGridPool(c.reqs)
		got := []int{}
		for {
			i, ok := p.take()
			if !ok {
				break
			}
			got = append(got, i)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: order %v, want %v", c.name, got, c.want)
		}
		if _, ok := p.take(); ok {
			t.Errorf("%s: a drained pool handed out another request", c.name)
		}
		if p.shared != c.shared {
			t.Errorf("%s: shared %+v, want %+v", c.name, p.shared, c.shared)
		}
	}
}

// TestBatchStatsCountSharedWorkloads: a GridRunsN call adds its workloads
// with more than one request to the process-wide counters — keys and
// their runs — and a workload named once adds nothing.
func TestBatchStatsCountSharedWorkloads(t *testing.T) {
	cfgs := []core.Config{core.MustPaperConfig(core.ArchRing, 4, 2, 1), core.MustPaperConfig(core.ArchConv, 4, 2, 1)}
	reqs, err := Expand(cfgs, []string{"gcc", "swim+synth-random@3"}, 500, 100)
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, Request{Config: cfgs[0], Workload: workload.Single("gcc"), Insts: 600, Warmup: 100})
	before := BatchStatsSnapshot()
	for _, r := range GridRunsN(reqs, 2) {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Config.Name, r.Workload, r.Err)
		}
	}
	after := BatchStatsSnapshot()
	got := BatchStats{Groups: after.Groups - before.Groups, GroupedRuns: after.GroupedRuns - before.GroupedRuns}
	// gcc: 2 runs; the mix: 2 runs; gcc at 600: alone.
	if want := (BatchStats{Groups: 2, GroupedRuns: 4}); got != want {
		t.Fatalf("one grid added %+v to the batch counters, want %+v", got, want)
	}
}
