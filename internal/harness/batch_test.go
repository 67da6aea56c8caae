package harness

import (
	"reflect"
	"testing"

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

// TestRequestGroups pins the grouping rules: requests sharing (canonical
// workload, insts, warmup) group together up to the cap, in first-
// appearance order of keys; an overflow group follows its key's first
// group; differing budgets split groups.
func TestRequestGroups(t *testing.T) {
	mk := func(w string, insts, warmup uint64) Request {
		spec, err := workload.ParseSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		return Request{Workload: spec, Insts: insts, Warmup: warmup}
	}
	reqs := []Request{
		mk("gcc", 100, 10),  // 0: group A
		mk("swim", 100, 10), // 1: group B
		mk("gcc", 100, 10),  // 2: group A
		mk("gcc", 200, 10),  // 3: group C (different insts)
		mk("gcc", 100, 10),  // 4: group A (hits cap 3 below with 0,2)
		mk("gcc", 100, 10),  // 5: overflow -> new group D, right after A
	}
	got := requestGroups(reqs, 3)
	want := [][]int{{0, 2, 4}, {5}, {1}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	if g := requestGroups(reqs, 1); len(g) != len(reqs) {
		t.Fatalf("cap 1 should yield singleton groups, got %v", g)
	}
}
