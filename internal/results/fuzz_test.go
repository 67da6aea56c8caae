package results

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// FuzzJobBatch: a lease body is whatever the coordinator's socket
// delivered. Decoding it and verifying it must never panic; a batch that
// verifies must convert to executable requests without panicking; and it
// must survive marshal → unmarshal → Verify with every key intact.
func FuzzJobBatch(f *testing.F) {
	mix, err := workload.ParseSpec("gcc+synth(ilp=4,ws=32K)@7")
	if err != nil {
		f.Fatal(err)
	}
	var jobs []Job
	for _, req := range []harness.Request{
		goldenRequest(),
		{Config: core.MustPaperConfig(core.ArchConv, 4, 2, 1), Workload: mix, Insts: 2000, Warmup: 400},
	} {
		j, err := NewJob(NewRequest(req))
		if err != nil {
			f.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	good, err := json.Marshal(JobBatch{Jobs: jobs})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{
		good,
		[]byte(`{"jobs":[{"key":"00","request":{"schema":1,"program":"gcc"}}]}`),
		[]byte(`{"jobs":[{"request":{"streams":[]}}]}`),
		[]byte(`{"jobs":null}`),
		[]byte(`{"jobs":[null]}`),
		[]byte(`{torn`),
		[]byte(`null`),
		nil,
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var b JobBatch
		if json.Unmarshal(in, &b) != nil || b.Verify() != nil {
			return
		}
		for _, j := range b.Jobs {
			_ = j.Request.Harness()
			_ = j.Request.WorkloadLabel()
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("verified batch does not marshal: %v", err)
		}
		var again JobBatch
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("verified batch does not unmarshal from its own encoding %q: %v", enc, err)
		}
		if err := again.Verify(); err != nil {
			t.Fatalf("round trip broke verification: %v", err)
		}
		if len(again.Jobs) != len(b.Jobs) {
			t.Fatalf("round trip kept %d of %d jobs", len(again.Jobs), len(b.Jobs))
		}
		for i := range b.Jobs {
			if again.Jobs[i].Key != b.Jobs[i].Key {
				t.Fatalf("job %d: key %s came back as %s", i, b.Jobs[i].Key, again.Jobs[i].Key)
			}
		}
	})
}
