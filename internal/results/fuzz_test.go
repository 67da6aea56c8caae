package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// canonSeeds are the inputs identity is computed over in production —
// every golden request, a sampled and a multi-stream request, a sweep
// manifest — plus request and manifest bodies with the string, number and
// layout corners the oracle defines an answer for.
func canonSeeds(tb testing.TB) [][]byte {
	mix, err := workload.ParseSpec("gcc+synth(ilp=4,ws=32K)@7")
	if err != nil {
		tb.Fatal(err)
	}
	sampled := goldenRequest()
	sampled.Sampling = harness.Sampling{Interval: 10_000, Window: 1_000, Warm: 500}
	reqs := []harness.Request{
		goldenRequest(),
		sampled,
		{Config: core.MustPaperConfig(core.ArchConv, 4, 2, 1), Workload: mix, Insts: 2000, Warmup: 400},
		{Config: core.MustPaperConfig(core.ArchRing, 8, 2, 1), Workload: workload.Spec{Streams: []workload.StreamSpec{{Program: "gcc"}, {Program: "swim"}, {Program: "mcf"}, {Program: "art"}}}, Insts: 1 << 62},
	}
	if spec, err := workload.ParseSpec(goldenSynthSpec); err == nil {
		reqs = append(reqs, harness.Request{Config: core.MustPaperConfig(core.ArchRing, 8, 2, 1), Workload: spec, Insts: 10_000, Warmup: 2_000})
	}
	var seeds [][]byte
	var jobs []Job
	for _, r := range reqs {
		j, err := NewJob(NewRequest(r))
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, j)
		b, err := json.Marshal(j.Request)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	m, err := NewSweepManifest(jobs)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, b)
	for _, s := range []string{
		`{"warmup":1,"program":"<>&","schema":1,"streams":[{"seed":18446744073709551615,"program":"\u2028\u2029"}]}`,
		`{"insts":1,"insts":2,"\u0069nsts":3,"sampled":{"window":1,"interval":2}}`,
		`{"program":"\u00e9\ud83d\ude00\ud800","config":{"Name":"a\u0000b","Conv":{"Threshold":1e21,"DecayFactor":0.000001}}}`,
		"{\"program\":\"\xff\xfe\",\"streams\":[{\"program\":\"\xc3\"}]}",
		" \t\n{ \"config\" : { \"Mem\" : { \"L2\" : { \"SizeBytes\" : 1E2 } } } } trailing",
		`{"kind":"explore","nonce":"n","schema":1,"explore":{"axes":[{"knob":"rob","values":[64]}],"insts":1000}}`,
		`{"kind":"explore","explore":{"b":1,"a":"<"}}`,
		`{"kind":"sweep","jobs":[{"key":"00","request":{"program":"gcc"}},null]}`,
		`{"kind":"sweep","jobs":[{"request":{"sampled":{"warm":1},"streams":[{"insts":0}]}}]}`,
		`{"kind":"explore","explore":{"a":"\u003c","b":1.50,"c":[-0,1E2]}}`,
		`{"kind":"explore","explore":"str"}`,
		`{"kind":"explore","explore":null}`,
		`{"schema":-1,"kind":"\u003csweep\u003e","nonce":"\ud800"}`,
		`{"config":{"Conv":{"DecayFactor":-0.0,"Threshold":5e-324},"Bpred":{"BTBAssoc":-0}}}`,
		`{"config":{"Name":"\u00e9\u2028<"},"insts":18446744073709551615,"warmup":0}`,
		`{"streams":[],"sampled":null,"program":""}`,
		`{"PROGRAM":"gcc","Insts":5,"unknown":{"x":[1]}}`,
		`{}`, `[]`, `null`, `{"program":}`, `{"insts":1.}`, ``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzCanonical: whatever body decodes as a request or a manifest, its
// json.Marshal is already the oracle's canonical form, and its key or id
// hashes exactly those bytes. A manifest's exploration payload is hashed
// as stored, so a manifest is checked only when that payload is itself
// canonical.
func FuzzCanonical(f *testing.F) {
	for _, s := range canonSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var req Request
		if json.Unmarshal(in, &req) == nil {
			sum := oracleHash(t, req)
			key, err := req.Key()
			if err != nil {
				t.Fatalf("decoded request does not key: %v", err)
			}
			if key != hex.EncodeToString(sum[:]) {
				t.Fatalf("key %s is not the hash of the oracle's canonical bytes for %q", key, in)
			}
		}
		var m Manifest
		if json.Unmarshal(in, &m) == nil && explorePayloadIsCanonical(m.Explore) {
			sum := oracleHash(t, m)
			id, err := m.ID()
			if err != nil {
				t.Fatalf("decoded manifest has no id: %v", err)
			}
			if want := m.Kind + "-" + hex.EncodeToString(sum[:])[:manifestIDHexLen]; id != want {
				t.Fatalf("manifest id %s differs from the oracle's %s for %q", id, want, in)
			}
		}
	})
}

// explorePayloadIsCanonical reports whether an exploration payload is
// absent or already in the oracle's canonical form.
func explorePayloadIsCanonical(raw json.RawMessage) bool {
	if raw == nil {
		return true
	}
	canon, err := oracleCanonicalize(raw)
	return err == nil && bytes.Equal(canon, raw)
}

// oracleHash checks that json.Marshal(v) is the oracle's canonical form
// of itself and returns the hash of those bytes.
func oracleHash(t *testing.T, v any) [sha256.Size]byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := oracleCanonicalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, canon) {
		t.Fatalf("json.Marshal is not canonical:\n got %s\nwant %s", raw, canon)
	}
	return sha256.Sum256(canon)
}
