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

// canonSeeds are the inputs the canonical encoder sees in production —
// every golden request, a sampled and a multi-stream request, a sweep
// manifest — plus the string, number and layout corners the oracle
// defines an answer for.
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
		`{"b":1,"a":[true,false,null],"c":{"z":"<>&","y":"\u2028\u2029"}}`,
		`{"a":1,"a":2,"\u0061":3,"b":{"a":1,"a":[]}}`,
		`{"\u00e9":1,"e":2,"\ud83d\ude00":"x","\ud800":"lone"}`,
		"{\"k\":\"\xff\xfe\",\"\xc3\":1}",
		`[12345678901234567890123, -0, 1.5e+300, 0.000001E-9, 1E2]`,
		" \t\n{ \"sp\" : [ 1 , 2 ] , \"q\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\" } trailing",
		`01`, `{}`, `[]`, `""`, `"a\u0000b"`, `[[[[{}]]]]`,
		`{"a":}`, `{"a" 1}`, `[1,]`, `-`, `1.`, `1e`, `tru`, `"\x"`, `"\u12"`, "\"\t\"", ``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzCanonical: the one-pass encoder must write the oracle's bytes for
// every input the oracle accepts and refuse every input it refuses; and a
// body that decodes as a request or a manifest must get the key and id the
// oracle's canonical bytes hash to.
func FuzzCanonical(f *testing.F) {
	for _, s := range canonSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, werr := oracleCanonicalize(in)
		got, err := canonicalize(in)
		switch {
		case werr != nil && err == nil:
			t.Fatalf("oracle refuses %q (%v) but canonicalize wrote %q", in, werr, got)
		case werr == nil && err != nil:
			t.Fatalf("oracle accepts %q but canonicalize refuses it: %v", in, err)
		case werr == nil && !bytes.Equal(got, want):
			t.Fatalf("canonical bytes differ for %q:\n got %q\nwant %q", in, got, want)
		}
		var req Request
		if json.Unmarshal(in, &req) == nil {
			key, err := req.Key()
			if err != nil {
				t.Fatalf("decoded request does not key: %v", err)
			}
			if want := oracleHash(t, req); key != hex.EncodeToString(want[:]) {
				t.Fatalf("key %s differs from the oracle's %x for %q", key, want, in)
			}
		}
		var m Manifest
		if json.Unmarshal(in, &m) == nil {
			id, err := m.ID()
			if err != nil {
				return // an explore payload json.Marshal refuses
			}
			ident := Manifest{Schema: m.Schema, Kind: m.Kind, Nonce: m.Nonce, Jobs: m.Jobs, Explore: m.Explore}
			want := oracleHash(t, ident)
			if wantID := m.Kind + "-" + hex.EncodeToString(want[:])[:manifestIDHexLen]; id != wantID {
				t.Fatalf("manifest id %s differs from the oracle's %s for %q", id, wantID, in)
			}
		}
	})
}

// oracleHash is the content hash as the oracle computes it.
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
	return sha256.Sum256(canon)
}
