package results

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// TestWireFieldsInKeyOrder: a content key is the hash of json.Marshal,
// which writes struct fields in declaration order, so every struct a
// Request or a Manifest reaches must declare its exported fields strictly
// ascending by JSON name (the tag's name, else the Go name).
func TestWireFieldsInKeyOrder(t *testing.T) {
	marshaler := reflect.TypeFor[json.Marshaler]()
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for k := typ.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array || k == reflect.Map; k = typ.Kind() {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] || typ.Implements(marshaler) {
			return
		}
		seen[typ] = true
		prev := ""
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" {
				continue
			}
			if f.Anonymous && name == "" {
				t.Errorf("%s: embedded field %s flattens into the parent's keys; give it a name", typ, f.Name)
				continue
			}
			if name == "" {
				name = f.Name
			}
			if prev != "" && name <= prev {
				t.Errorf("%s: field %s (key %q) is declared after key %q; declare fields in key order", typ, f.Name, name, prev)
			}
			prev = name
			walk(f.Type)
		}
	}
	walk(reflect.TypeFor[Request]())
	walk(reflect.TypeFor[Manifest]())
	for _, want := range []reflect.Type{reflect.TypeFor[core.Config](), reflect.TypeFor[Job](), reflect.TypeFor[SampledParams]()} {
		if !seen[want] {
			t.Errorf("walk never reached %s", want)
		}
	}
}

// genRequest draws one request: a paper configuration with perturbed
// Table 2 fields, a fixed, seeded, synthetic or 1–4-stream workload, and
// exact or sampled fidelity.
func genRequest(r *rand.Rand) harness.Request {
	arch := []core.ArchKind{core.ArchRing, core.ArchConv}[r.IntN(2)]
	cfg := core.MustPaperConfig(arch, 4+4*r.IntN(2), 1+r.IntN(2), 1+r.IntN(2))
	perturb := []func(){
		func() { cfg.ROBSize = 1 + r.IntN(512) },
		func() { cfg.LSQSize = 1 + r.IntN(256) },
		func() { cfg.IQInt, cfg.IQFP, cfg.IQComm = 1+r.IntN(64), 1+r.IntN(64), 1+r.IntN(64) },
		func() { cfg.RegsInt, cfg.RegsFP = 34+r.IntN(200), 34+r.IntN(200) },
		func() { cfg.FetchWidth, cfg.DispatchWidth, cfg.CommitWidth = 1+r.IntN(16), 1+r.IntN(16), 1+r.IntN(16) },
		func() { cfg.HopLatency = 1 + r.IntN(3) },
		func() { cfg.Mem.L2.SizeBytes = 1 << (16 + r.IntN(8)) },
		func() { cfg.Mem.L1D.Assoc, cfg.Mem.L2MissLatency = 1<<r.IntN(4), 50+r.IntN(300) },
		func() { cfg.Bpred.GshareEntries, cfg.Bpred.HistoryBits = 1<<(8+r.IntN(6)), 4+r.IntN(12) },
		func() { cfg.Conv.Threshold, cfg.Conv.DecayFactor = r.Float64()*100, r.Float64() },
		func() { cfg.Conv.Threshold = []float64{1e21, 1e-7, 0.1, 123456789.125}[r.IntN(4)] },
		func() { cfg.Name = []string{"<x&y>", "é ", "a\"b\\c", "\x00\t"}[r.IntN(4)] },
	}
	for range r.IntN(4) {
		perturb[r.IntN(len(perturb))]()
	}

	names := workload.Names()
	program := func() string {
		if r.IntN(4) > 0 {
			return names[r.IntN(len(names))]
		}
		ws := []string{"32K", "1M", "4M", "4194304"}[r.IntN(4)]
		return fmt.Sprintf("synth(ilp=%d,br=0.%02d,ws=%s,phases=%d)", 1+r.IntN(16), r.IntN(30), ws, 1+r.IntN(3))
	}
	var spec workload.Spec
	switch r.IntN(4) {
	case 0: // fixed
		spec = workload.Single(names[r.IntN(len(names))])
	case 1: // seeded, maybe with a budget
		spec = workload.Spec{Streams: []workload.StreamSpec{{Program: program(), Seed: r.Uint64() >> r.IntN(64)}}}
		if r.IntN(2) == 0 {
			spec.Streams[0].Insts = uint64(1000 + r.IntN(100_000))
		}
	case 2: // synthetic
		s, err := workload.ParseSpec(program())
		if err != nil {
			panic(err)
		}
		spec = s
	default: // 1–4 streams
		for range 1 + r.IntN(4) {
			s := workload.StreamSpec{Program: program()}
			if r.IntN(2) == 0 {
				s.Seed = uint64(r.IntN(1000))
			}
			if r.IntN(3) == 0 {
				s.Insts = uint64(1000 + r.IntN(50_000))
			}
			spec.Streams = append(spec.Streams, s)
		}
	}
	req := harness.Request{Config: cfg, Workload: spec, Insts: uint64(1 + r.IntN(1_000_000)), Warmup: uint64(r.IntN(100_000))}
	if r.IntN(3) == 0 {
		req.Insts = 1<<63 + uint64(r.IntN(1000)) // past 2^53: numbers must stay exact
	}
	if r.IntN(2) == 0 {
		req.Sampling = harness.Sampling{Interval: uint64(10_000 + r.IntN(100_000)), Window: uint64(1000 + r.IntN(5000)), Warm: uint64(r.IntN(2000))}
	}
	return req
}

// TestGeneratedRequestsAreCanonical: over generated requests, and the
// sweep manifests built from them, json.Marshal is already the oracle's
// canonical form, and the key and id hash exactly those bytes.
func TestGeneratedRequestsAreCanonical(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	r := rand.New(rand.NewPCG(44, 1))
	var jobs []Job
	for i := range n {
		req := NewRequest(genRequest(r))
		sum := oracleHash(t, req)
		key, err := req.Key()
		if err != nil || key != hex.EncodeToString(sum[:]) {
			t.Fatalf("request %d: key %s (%v) is not the hash of its canonical bytes", i, key, err)
		}
		jobs = append(jobs, Job{Key: key, Request: req})
	}
	for lo := 0; lo < len(jobs); {
		hi := min(len(jobs), lo+1+r.IntN(16))
		m, err := NewSweepManifest(jobs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		sum := oracleHash(t, m)
		if id, err := m.ID(); err != nil || id != "sweep-"+hex.EncodeToString(sum[:])[:manifestIDHexLen] {
			t.Fatalf("manifest of jobs [%d,%d): id %s (%v) is not the hash of its canonical bytes", lo, hi, id, err)
		}
		lo = hi
	}
}
