package results

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// goldenJob builds a verifiable job from the golden request.
func goldenJob(t *testing.T) Job {
	t.Helper()
	j, err := NewJob(NewRequest(goldenRequest()))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJobBatchRoundTrip: a lease payload survives the wire the way the
// fleet protocol carries it — json in, json out, then Verify.
func TestJobBatchRoundTrip(t *testing.T) {
	j := goldenJob(t)
	if j.Key != goldenKey {
		t.Fatalf("NewJob key = %s, want %s", j.Key, goldenKey)
	}
	if err := j.Verify(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(JobBatch{Jobs: []Job{j}})
	if err != nil {
		t.Fatal(err)
	}
	var got JobBatch
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 1 || got.Jobs[0].Key != j.Key || got.Jobs[0].Request.Program != "gcc" {
		t.Fatalf("round trip mutated the batch: %+v", got)
	}
}

// TestJobBatchRejectsKeyMismatch pins the schema-drift guard: a job whose
// key does not hash from its request must be refused, whether it was
// built that way or tampered with on the wire.
func TestJobBatchRejectsKeyMismatch(t *testing.T) {
	j := goldenJob(t)
	j.Key = strings.Repeat("0", 64)
	if err := j.Verify(); err == nil {
		t.Error("Job.Verify accepted a mismatched key")
	}
	good := goldenJob(t)
	if err := (JobBatch{Jobs: []Job{good, j}}).Verify(); err == nil {
		t.Error("JobBatch.Verify accepted a batch with a mismatched member")
	}
	b, err := json.Marshal(JobBatch{Jobs: []Job{good}})
	if err != nil {
		t.Fatal(err)
	}
	var tampered JobBatch
	if err := json.Unmarshal(bytes.Replace(b, []byte(good.Key), []byte(j.Key), 1), &tampered); err != nil {
		t.Fatal(err)
	}
	if err := tampered.Verify(); err == nil {
		t.Error("JobBatch.Verify accepted a key tampered with on the wire")
	}
}

// TestResultBatchRoundTrip: a completion payload keeps every record's
// identity across the wire.
func TestResultBatchRoundTrip(t *testing.T) {
	k, r := fakeResult(1)
	b, err := json.Marshal(ResultBatch{Results: []Result{r}})
	if err != nil {
		t.Fatal(err)
	}
	var got ResultBatch
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Key != k || got.Results[0].Program != r.Program {
		t.Fatalf("round trip mutated the batch: %+v", got)
	}
}
