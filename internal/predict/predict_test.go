package predict

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// summarize profiles the first n instructions of a fixed workload; the
// workload generators are deterministic, so equal calls must produce
// byte-identical profiles.
func summarize(t testing.TB, program string, seed, n uint64) *Profile {
	t.Helper()
	stream, err := workload.NewStream(program, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Summarize(program, seed, stream, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileDeterminism(t *testing.T) {
	for _, prog := range []string{"gcc", "mcf", "swim", "synth"} {
		a := summarize(t, prog, 1, 10_000)
		b := summarize(t, prog, 1, 10_000)
		ab, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(ab) != string(bb) {
			t.Errorf("%s: two summarizer passes disagree", prog)
		}
	}
}

func TestProfileEncodeDecodeRoundTrip(t *testing.T) {
	p := summarize(t, "gcc", 1, 5_000)
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Error("profile round trip changed the profile")
	}
	if p.Key() != q.Key() {
		t.Errorf("round trip changed the key: %s vs %s", p.Key(), q.Key())
	}
	if _, err := Decode([]byte(`{"schema":"bogus/9"}`)); err == nil || !strings.Contains(err.Error(), SchemaV1) {
		t.Errorf("bogus schema decode: err = %v, want mention of %s", err, SchemaV1)
	}
}

func TestProfileSanity(t *testing.T) {
	const n = 10_000
	p := summarize(t, "gcc", 1, n)
	var classes uint64
	for _, c := range p.Classes {
		classes += c
	}
	if classes != n {
		t.Errorf("class counts sum to %d, want %d", classes, n)
	}
	if p.Branches == 0 || p.MemRefs == 0 {
		t.Fatalf("gcc profile has %d branches, %d mem refs; want both > 0", p.Branches, p.MemRefs)
	}
	if r := p.MispredictRate(); r <= 0 || r >= 0.5 {
		t.Errorf("mispredict rate %v outside (0, 0.5)", r)
	}
	if p.CritPath == 0 || p.CritPath > n {
		t.Errorf("critical path %d outside (0, %d]", p.CritPath, n)
	}
	if p.ColdLines == 0 || p.ColdLines > p.MemRefs {
		t.Errorf("cold lines %d outside (0, mem refs %d]", p.ColdLines, p.MemRefs)
	}
	if len(p.Ring) != len(ClusterCounts) || len(p.Conv) != len(ClusterCounts) {
		t.Fatalf("steer profiles: ring %d, conv %d, want %d each", len(p.Ring), len(p.Conv), len(ClusterCounts))
	}
	for i, s := range p.Ring {
		if s.Clusters != ClusterCounts[i] {
			t.Errorf("ring steer profile %d covers %d clusters, want %d", i, s.Clusters, ClusterCounts[i])
		}
	}
	// mcf chases pointers, lucas-style FP codes stream: the chain signal
	// must separate them or the MLP model collapses to one latency.
	mcf := summarize(t, "mcf", 1, n)
	swim := summarize(t, "swim", 1, n)
	if float64(mcf.AddrChain)/float64(mcf.MemRefs) <= float64(swim.AddrChain)/float64(swim.MemRefs) {
		t.Errorf("addr-chain fraction: mcf %d/%d not above swim %d/%d",
			mcf.AddrChain, mcf.MemRefs, swim.AddrChain, swim.MemRefs)
	}
}

// TestLines64MatchesBruteForce: Lines64, derived at Finish from the
// 32-byte lines the summarizer tracks for stack distances, equals a direct
// count of distinct 64-byte lines over random address streams — dense and
// sparse ones, and ones that only ever touch the odd (or the even) half of
// each 64-byte line.
func TestLines64MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	line := func() uint64 { return uint64(rng.Intn(1<<10)) << 6 }
	for _, shape := range []struct {
		name string
		addr func() uint64
	}{
		{"dense", func() uint64 { return uint64(rng.Intn(1 << 12)) }},
		{"sparse", func() uint64 { return rng.Uint64() }},
		{"odd halves only", func() uint64 { return line() | 32 | uint64(rng.Intn(32)) }},
		{"even halves only", func() uint64 { return line() | uint64(rng.Intn(32)) }},
	} {
		for trial := 0; trial < 25; trial++ {
			s := NewSummarizer("lines", 0)
			want := make(map[uint64]bool)
			for i, n := 0, rng.Intn(4000); i < n; i++ {
				in := isa.Inst{Class: isa.Load, EffAddr: shape.addr()}
				if rng.Intn(3) == 0 {
					in.Class = isa.Store
				}
				want[in.EffAddr>>6] = true
				s.Observe(&in)
			}
			if got := s.Finish().Lines64; got != uint64(len(want)) {
				t.Fatalf("%s, trial %d: Lines64 = %d, brute force counts %d", shape.name, trial, got, len(want))
			}
		}
	}
}

func TestExtraHops(t *testing.T) {
	// Distance-1 results ride the staggered writeback ring for free; only
	// d >= 2 communications occupy a bus, at d-1 hops each.
	s := SteerProfile{Clusters: 4, Comms: 10, Hops: []uint64{6, 3, 1}}
	comms, mean := s.ExtraHops()
	if comms != 4 {
		t.Errorf("bus comms = %d, want 4 (distance-1 is free)", comms)
	}
	if want := (1.0*3 + 2.0*1) / 4; mean != want {
		t.Errorf("mean extra hops = %v, want %v", mean, want)
	}
	var empty SteerProfile
	if c, m := empty.ExtraHops(); c != 0 || m != 0 {
		t.Errorf("empty profile: %d comms, %v hops; want zeros", c, m)
	}
}

func TestMergeAddsCounters(t *testing.T) {
	p := summarize(t, "gcc", 1, 5_000)
	m := Merge([]*Profile{p, p})
	if m.Insts != 2*p.Insts || m.Branches != 2*p.Branches || m.MemRefs != 2*p.MemRefs {
		t.Errorf("merge of two equal profiles did not double counters: %+v", m)
	}
	if m.MispredictRate() != p.MispredictRate() {
		t.Errorf("merge changed mispredict rate: %v vs %v", m.MispredictRate(), p.MispredictRate())
	}
	one := Merge([]*Profile{p})
	if !reflect.DeepEqual(one, p) {
		t.Error("merge of one profile is not the profile")
	}
}

func TestPredictIPCBounds(t *testing.T) {
	p := summarize(t, "gcc", 1, 10_000)
	m := DefaultModel()
	for _, arch := range []core.ArchKind{core.ArchRing, core.ArchConv} {
		for _, clusters := range []int{4, 8} {
			cfg, err := core.PaperConfig(arch, clusters, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := m.PredictIPC(p, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			width := float64(clusters * (cfg.IssueInt + cfg.IssueFP))
			if pred.IPC <= 0 || pred.IPC > width {
				t.Errorf("%s: predicted IPC %v outside (0, %v]", cfg.Name, pred.IPC, width)
			}
		}
	}
}

// TestPredictRingBeatsConv pins the paper's headline at the model level:
// at equal resources the ring machine's free distance-1 forwarding must
// predict at or above the conventional machine.
func TestPredictRingBeatsConv(t *testing.T) {
	m := DefaultModel()
	for _, prog := range []string{"gcc", "swim"} {
		p := summarize(t, prog, 1, 10_000)
		ring, err := core.PaperConfig(core.ArchRing, 8, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := core.PaperConfig(core.ArchConv, 8, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := m.PredictIPC(p, &ring)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := m.PredictIPC(p, &conv)
		if err != nil {
			t.Fatal(err)
		}
		if rp.IPC < cp.IPC {
			t.Errorf("%s: ring predicted %v below conv %v", prog, rp.IPC, cp.IPC)
		}
	}
}
