package workload

import (
	"errors"
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestAllProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("%d profiles, want 26 (12 INT + 14 FP)", len(ps))
	}
	nInt, nFP := 0, 0
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.Class == ClassInt {
			nInt++
		} else {
			nFP++
		}
	}
	if nInt != 12 || nFP != 14 {
		t.Fatalf("suite split %d INT / %d FP, want 12/14", nInt, nFP)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("swim")
	if err != nil || p.Name != "swim" {
		t.Fatalf("ByName(swim): %v, %v", p.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSuiteNamesSorted(t *testing.T) {
	names := SuiteNames(ClassFP)
	if len(names) != 14 {
		t.Fatalf("%d FP names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	g1, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(p)
	for i := 0; i < 5000; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if a != b {
			t.Fatalf("streams diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestGeneratorStreamIsValid(t *testing.T) {
	p, _ := ByName("ammp")
	g, _ := NewGenerator(p)
	n, err := trace.Validate(trace.NewLimit(g, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("validated %d instructions", n)
	}
}

func TestGeneratorInvalidProfile(t *testing.T) {
	var p Profile
	if _, err := NewGenerator(p); err == nil {
		t.Fatal("empty profile accepted")
	}
}

// classShares drains n instructions and returns the dynamic class mix.
func classShares(t *testing.T, name string, n int) map[isa.Class]float64 {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[isa.Class]int{}
	for i := 0; i < n; i++ {
		in, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[in.Class]++
	}
	out := map[isa.Class]float64{}
	for c, k := range counts {
		out[c] = float64(k) / float64(n)
	}
	return out
}

func TestMixRoughlyMatchesProfile(t *testing.T) {
	shares := classShares(t, "swim", 60000)
	// swim is FP-dominated: FP work well over a third, loads about a
	// quarter, branches rare.
	fp := shares[isa.FPAdd] + shares[isa.FPMult] + shares[isa.FPDiv]
	if fp < 0.30 {
		t.Errorf("swim FP share %.2f, want > 0.30", fp)
	}
	if shares[isa.Load] < 0.15 || shares[isa.Load] > 0.40 {
		t.Errorf("swim load share %.2f", shares[isa.Load])
	}
	if shares[isa.Branch] > 0.08 {
		t.Errorf("swim branch share %.2f, want tiny", shares[isa.Branch])
	}
}

func TestIntVsFPCharacter(t *testing.T) {
	gzip := classShares(t, "gzip", 60000)
	swim := classShares(t, "swim", 60000)
	if gzip[isa.Branch] <= swim[isa.Branch] {
		t.Errorf("INT code should branch more: gzip %.3f vs swim %.3f",
			gzip[isa.Branch], swim[isa.Branch])
	}
	gzipFP := gzip[isa.FPAdd] + gzip[isa.FPMult]
	if gzipFP > 0.01 {
		t.Errorf("gzip has %.3f FP work", gzipFP)
	}
}

func TestBranchOutcomesFollowStructure(t *testing.T) {
	p, _ := ByName("mgrid") // long loops: loop branches almost always taken
	g, _ := NewGenerator(p)
	taken, total := 0, 0
	for i := 0; i < 50000; i++ {
		in, _ := g.Next()
		if in.Class == isa.Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no branches generated")
	}
	if frac := float64(taken) / float64(total); frac < 0.5 {
		t.Errorf("loop-dominated code taken fraction %.2f", frac)
	}
}

func TestPCsRepeatAcrossIterations(t *testing.T) {
	p, _ := ByName("art")
	g, _ := NewGenerator(p)
	seen := map[uint64]int{}
	for i := 0; i < 30000; i++ {
		in, _ := g.Next()
		seen[in.PC]++
	}
	if len(seen) > g.StaticSize()+8 {
		t.Fatalf("%d distinct PCs from a %d-instruction skeleton", len(seen), g.StaticSize())
	}
	// Loops must actually loop: average executions per static PC >> 1.
	if avg := 30000 / float64(len(seen)); avg < 5 {
		t.Errorf("average re-execution %.1f, loops not looping", avg)
	}
}

func TestAddressesWithinWorkingSetWindow(t *testing.T) {
	p, _ := ByName("sixtrack")
	g, _ := NewGenerator(p)
	var lo, hi uint64 = math.MaxUint64, 0
	n := 0
	for i := 0; i < 30000; i++ {
		in, _ := g.Next()
		if in.Class.IsMem() {
			n++
			if in.EffAddr < lo {
				lo = in.EffAddr
			}
			if in.EffAddr > hi {
				hi = in.EffAddr
			}
		}
	}
	if n == 0 {
		t.Fatal("no memory instructions")
	}
	span := hi - lo
	// Each static generator owns a window of the working-set size; the
	// overall span is bounded by #generators * (window + gap), far under
	// a wild 2^60 spread — this catches address-generation bugs.
	if span > 1<<40 {
		t.Fatalf("address span %#x implausible", span)
	}
}

func TestDependencesReferenceRecentOrLiveIn(t *testing.T) {
	// Every source register must have been written within the last ~40
	// register-writing instructions, be a live-in (r1-r5), an induction
	// register (r26-r30), or a not-yet-written register at warm-up —
	// this pins the dependence-distance machinery.
	p, _ := ByName("vpr")
	g, _ := NewGenerator(p)
	lastWrite := map[isa.Reg]int{}
	writes := 0
	near, far, total := 0, 0, 0
	for i := 0; i < 30000; i++ {
		in, _ := g.Next()
		for s := uint8(0); s < in.NumSrcs; s++ {
			r := in.Src[s]
			if r.IsZero() || (r.Kind == isa.IntReg && (r.Idx <= 5 || r.Idx >= 26)) || (r.Kind == isa.FPReg && r.Idx <= 5) {
				continue
			}
			w, ok := lastWrite[r]
			if !ok {
				continue // warm-up: register not written yet
			}
			total++
			switch d := writes - w; {
			case d <= 250:
				near++
			case d > 1000:
				// Writers hidden in rarely-taken hammock arms can be
				// arbitrarily stale, but they must be rare.
				far++
			}
		}
		if in.WritesReg() {
			lastWrite[in.Dest] = writes
			writes++
		}
	}
	if total == 0 {
		t.Fatal("no dependent reads observed")
	}
	if frac := float64(near) / float64(total); frac < 0.90 {
		t.Errorf("only %.2f of reads are near their writer (want > 0.90)", frac)
	}
	if frac := float64(far) / float64(total); frac > 0.02 {
		t.Errorf("%.3f of reads are extremely stale (want < 0.02)", frac)
	}
}

func TestStaticSizeMatchesLoops(t *testing.T) {
	p, _ := ByName("lucas")
	g, _ := NewGenerator(p)
	if g.StaticSize() < p.Loops*3 {
		t.Fatalf("skeleton only %d instructions for %d loops", g.StaticSize(), p.Loops)
	}
	if g.Profile().Name != "lucas" {
		t.Fatal("Profile() returned wrong profile")
	}
}

func TestFPLoadsTargetFPRegisters(t *testing.T) {
	p, _ := ByName("applu")
	g, _ := NewGenerator(p)
	fpDest, total := 0, 0
	for i := 0; i < 30000; i++ {
		in, _ := g.Next()
		if in.Class == isa.Load {
			total++
			if in.Dest.Kind == isa.FPReg {
				fpDest++
			}
		}
	}
	if total == 0 {
		t.Fatal("no loads")
	}
	if frac := float64(fpDest) / float64(total); frac < 0.5 {
		t.Errorf("FP program loads into FP registers only %.2f of the time", frac)
	}
}

func TestValidateRejectsDegenerates(t *testing.T) {
	good, _ := ByName("swim")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Mix = nil },
		func(p *Profile) { p.Mix = map[isa.Class]float64{isa.IntALU: -1} },
		func(p *Profile) { p.Loops = 0 },
		func(p *Profile) { p.ChainDistMean = 0 },
		func(p *Profile) { p.WorkingSet = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: degenerate profile accepted", i)
		}
	}
}

func TestGeneratorNeverEnds(t *testing.T) {
	p, _ := ByName("mcf")
	g, _ := NewGenerator(p)
	for i := 0; i < 100000; i++ {
		if _, err := g.Next(); err != nil {
			if errors.Is(err, trace.ErrEnd) {
				t.Fatal("infinite generator ended")
			}
			t.Fatal(err)
		}
	}
}

// TestPerProfileCharacter is a table-driven characterization of every
// profile: the dynamic mix must match the suite the profile claims to
// belong to, and loop structure must make branch outcomes learnable for
// FP codes.
func TestPerProfileCharacter(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, err := NewGenerator(p)
			if err != nil {
				t.Fatal(err)
			}
			counts := map[isa.Class]int{}
			taken, branches := 0, 0
			const n = 25000
			for i := 0; i < n; i++ {
				in, err := g.Next()
				if err != nil {
					t.Fatal(err)
				}
				counts[in.Class]++
				if in.Class == isa.Branch {
					branches++
					if in.Taken {
						taken++
					}
				}
			}
			fp := float64(counts[isa.FPAdd]+counts[isa.FPMult]+counts[isa.FPDiv]) / n
			mem := float64(counts[isa.Load]+counts[isa.Store]) / n
			br := float64(branches) / n
			if p.Class == ClassFP {
				if fp < 0.15 {
					t.Errorf("FP profile has only %.2f FP work", fp)
				}
				if br > 0.12 {
					t.Errorf("FP profile branches %.2f of the time", br)
				}
			} else {
				if fp > 0.01 {
					t.Errorf("INT profile has %.2f FP work", fp)
				}
				if br < 0.05 {
					t.Errorf("INT profile branches only %.2f of the time", br)
				}
			}
			if mem < 0.10 || mem > 0.55 {
				t.Errorf("memory share %.2f implausible", mem)
			}
			if branches > 0 && float64(taken)/float64(branches) < 0.25 {
				t.Errorf("taken fraction %.2f implausibly low for loop code",
					float64(taken)/float64(branches))
			}
		})
	}
}

// BenchmarkWorkloadGenerator measures trace generation speed.
func BenchmarkWorkloadGenerator(b *testing.B) {
	prof, err := ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
