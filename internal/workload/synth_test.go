package workload

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// TestCanonicalFixedPoint: parsing a canonical spec and re-canonicalizing
// is the identity, for a sweep of specs across the grammar.
func TestCanonicalFixedPoint(t *testing.T) {
	specs := []string{
		"synth",
		"synth()",
		"synth(ilp=8)",
		"synth(ilp=8,br=0.12,ws=4M,ld=0.28,st=0.12,stride=0.6,phases=3)",
		"synth(phases=3,ilp=8,ws=4M,st=0.12,br=0.12,ld=0.28,stride=0.6)", // scrambled order
		"synth(ws=65536)",
		"synth(ws=64K)",
		"synth(ws=1048576)", // the default spelled explicitly
		"synth(ilp=2.50)",   // non-canonical number format
		"synth(bf=0.2,fp=0.75,plen=2000)",
		"synth( ilp = 4 , br = 0.3 )", // whitespace
	}
	for _, spec := range specs {
		p, err := ParseSynthParams(spec)
		if err != nil {
			t.Fatalf("ParseSynthParams(%q): %v", spec, err)
		}
		canon := p.Canonical()
		p2, err := ParseSynthParams(canon)
		if err != nil {
			t.Fatalf("ParseSynthParams(canonical %q): %v", canon, err)
		}
		if p != p2 {
			t.Fatalf("%q: canonical %q reparses to different params:\n%+v\n%+v", spec, canon, p, p2)
		}
		if got := p2.Canonical(); got != canon {
			t.Fatalf("%q: canonical not a fixed point: %q -> %q", spec, canon, got)
		}
	}
}

// TestCanonicalNormalizes: equivalent spellings collapse to equal bytes.
func TestCanonicalNormalizes(t *testing.T) {
	cases := [][2]string{
		{"synth", "synth()"},
		{"synth(ilp=8,ws=4M)", "synth(ws=4194304, ilp=8.0)"},
		{"synth(ws=1048576)", "synth"}, // explicit default drops out
		{"synth(br=0.2)", "synth"},
	}
	for _, c := range cases {
		a, err := ParseSynthParams(c[0])
		if err != nil {
			t.Fatalf("ParseSynthParams(%q): %v", c[0], err)
		}
		b, err := ParseSynthParams(c[1])
		if err != nil {
			t.Fatalf("ParseSynthParams(%q): %v", c[1], err)
		}
		if a.Canonical() != b.Canonical() {
			t.Errorf("%q and %q canonicalize differently: %q vs %q",
				c[0], c[1], a.Canonical(), b.Canonical())
		}
	}
}

// TestParseErrors: malformed specs fail with errors naming the problem.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"synth(", "malformed"},
		{"synth(ilp=8", "malformed"},
		{"synth(ilp=(8))", "malformed"},
		{"synth(ilp)", "name=value"},
		{"synth(=3)", "name=value"},
		{"synth(zoom=3)", "unknown parameter"},
		{"synth(ilp=8,ilp=9)", "duplicate"},
		{"synth(ilp=NaN)", "not finite"},
		{"synth(ilp=+Inf)", "not finite"},
		{"synth(ilp=-2)", "out of range"},
		{"synth(ilp=0)", "out of range"},
		{"synth(ilp=bogus)", "not a number"},
		{"synth(br=1.5)", "out of range"},
		{"synth(br=-0.1)", "out of range"},
		{"synth(ws=0)", "zero working set"},
		{"synth(ws=512)", "out of range"},
		{"synth(ws=2G)", "out of range"},
		{"synth(ws=4X)", "not a byte count"},
		{"synth(phases=0)", "out of range"},
		{"synth(phases=9)", "out of range"}, // > MaxSynthPhases = MaxStreams
		{"synth(phases=2.5)", "not an integer"},
		{"synth(plen=10)", "out of range"},
		{"synth(ld=0.6,st=0.3,bf=0.2)", "computation"},
	}
	for _, c := range cases {
		_, err := ParseSynthParams(c.spec)
		if err == nil {
			t.Errorf("ParseSynthParams(%q): expected error, got none", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSynthParams(%q): error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestStreamDeterminism: the same (canonical spec, seed) yields
// bit-identical instruction streams from independent constructions —
// the property the trace cache and the content-addressed store key on.
func TestStreamDeterminism(t *testing.T) {
	for _, spec := range []string{
		"synth(ilp=6,ws=256K,phases=3,plen=2000)",
		"synth-random",
		"synth-fp",
	} {
		for _, seed := range []uint64{0, 7} {
			a, err := NewStream(spec, seed)
			if err != nil {
				t.Fatalf("NewStream(%q, %d): %v", spec, seed, err)
			}
			b, err := NewStream(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				ia, _ := a.Next()
				ib, _ := b.Next()
				if ia != ib {
					t.Fatalf("%q@%d: instruction %d differs:\n%v\n%v", spec, seed, i, ia, ib)
				}
			}
		}
	}
}

// TestSeedsDiverge: different seeds of the same family are different
// workloads, and different seeds of the same parameterized spec are
// different replays of the same skeleton.
func TestSeedsDiverge(t *testing.T) {
	a, err := NewStream("synth-random", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream("synth-random", 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 1000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia != ib {
			same = false
			break
		}
	}
	if same {
		t.Fatal("synth-random@1 and synth-random@2 produced identical prefixes")
	}
}

// TestPhasedStreamValid: phased streams satisfy trace.Validate (strictly
// increasing Seq, well-formed instructions) and actually change phase.
func TestPhasedStreamValid(t *testing.T) {
	s, err := NewStream("synth(phases=4,plen=1000,ws=64K)", 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i], err = s.Next()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := trace.Validate(trace.NewSlice(insts)); err != nil {
		t.Fatalf("phased stream fails validation: %v", err)
	}
	// Phase k's PCs live at offset k*2^38; a 4-phase stream over 10k
	// instructions at plen=1000 must visit all four regions.
	regions := make(map[uint64]bool)
	for _, in := range insts {
		regions[in.PC/phaseAddrStride] = true
	}
	if len(regions) != 4 {
		t.Fatalf("expected 4 phase regions, saw %d", len(regions))
	}
}

// TestWorkloadIntegration: synth names resolve through the workload
// package entry points — spec parsing canonicalizes, Validate accepts,
// NewStream streams, Class reports.
func TestWorkloadIntegration(t *testing.T) {
	spec, err := ParseSpec("synth(ws=4194304,ilp=8.0)+synth-random:5000@9")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "synth(ilp=8,ws=4M)+synth-random:5000@9"
	if got := spec.Name(); got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	// Round trip: parse the canonical name again.
	spec2, err := ParseSpec(spec.Name())
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Name() != want {
		t.Fatalf("round trip: %q -> %q", want, spec2.Name())
	}
	if _, err := NewStream("synth(ilp=8,ws=4M)", 0); err != nil {
		t.Fatal(err)
	}
	cls, err := spec.Class()
	if err != nil {
		t.Fatal(err)
	}
	if cls != ClassMixed {
		t.Fatalf("Class() = %v, want MIX", cls)
	}
	if cls, _ := ClassOf("synth(fp=0.8)"); cls != ClassFP {
		t.Fatalf("ClassOf(fp=0.8) = %v, want FP", cls)
	}
	// Malformed specs are rejected at parse time with the synth error.
	if _, err := ParseSpec("gcc+synth(ilp=0)"); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ParseSpec(bad synth) error = %v", err)
	}
}

// TestSplitList: commas inside synth parameter lists do not split.
func TestSplitList(t *testing.T) {
	got := SplitList("gcc, synth(ilp=8,ws=4M), swim+synth-random@2,")
	want := []string{"gcc", "synth(ilp=8,ws=4M)", "swim+synth-random@2"}
	if len(got) != len(want) {
		t.Fatalf("SplitList = %q, want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SplitList[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFamilies: every registered family resolves under several seeds.
func TestFamilies(t *testing.T) {
	for _, name := range SynthFamilies() {
		for seed := uint64(0); seed < 4; seed++ {
			p, canon, err := resolveSynth(name, seed)
			if err != nil {
				t.Fatalf("resolveSynth(%q, %d): %v", name, seed, err)
			}
			if canon != name {
				t.Fatalf("family canonical = %q, want %q", canon, name)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s@%d: %v", name, seed, err)
			}
		}
	}
}
