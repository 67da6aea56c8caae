package bpred

import "testing"

func TestCounterSaturation(t *testing.T) {
	var c Counter
	for i := 0; i < 10; i++ {
		c.Update(true)
	}
	if c != 3 || !c.Predict() {
		t.Fatalf("after many takens: counter %d", c)
	}
	for i := 0; i < 10; i++ {
		c.Update(false)
	}
	if c != 0 || c.Predict() {
		t.Fatalf("after many not-takens: counter %d", c)
	}
}

func TestCounterHysteresis(t *testing.T) {
	c := Counter(3)
	c.Update(false)
	if !c.Predict() {
		t.Fatal("one not-taken flipped a strongly-taken counter")
	}
}

func TestNewRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two size accepted")
		}
	}()
	cfg := DefaultConfig()
	cfg.GshareEntries = 1000
	New(cfg)
}

func TestBimodalLearnsBias(t *testing.T) {
	p := New(DefaultConfig())
	const pc = 0x4000
	// Train: always taken with a stable target.
	for i := 0; i < 10; i++ {
		p.Update(pc, true, 0x5000)
	}
	mis := 0
	for i := 0; i < 100; i++ {
		if p.Update(pc, true, 0x5000) {
			mis++
		}
	}
	if mis != 0 {
		t.Fatalf("%d mispredictions on a fully biased branch", mis)
	}
}

func TestGsharePattern(t *testing.T) {
	p := New(DefaultConfig())
	const pc = 0x4000
	// Alternating pattern: bimodal cannot learn it, gshare can (history
	// distinguishes the two contexts). After warm-up the hybrid should
	// be nearly perfect.
	for i := 0; i < 400; i++ {
		p.Update(pc, i%2 == 0, 0x5000)
	}
	mis := 0
	for i := 0; i < 200; i++ {
		if p.Update(pc, i%2 == 0, 0x5000) {
			mis++
		}
	}
	if mis > 10 {
		t.Fatalf("%d/200 mispredictions on an alternating pattern", mis)
	}
}

func TestFirstTakenBranchRedirects(t *testing.T) {
	p := New(DefaultConfig())
	// A taken branch whose target the BTB cannot supply must redirect,
	// even if the direction guess happened to be "taken".
	if !p.Update(0x4000, true, 0x9000) {
		t.Fatal("first taken branch did not redirect (BTB was empty)")
	}
}

func TestNotTakenNeedsNoBTB(t *testing.T) {
	p := New(DefaultConfig())
	// Train not-taken: falls through, no target needed.
	for i := 0; i < 5; i++ {
		p.Update(0x4000, false, 0)
	}
	if p.Update(0x4000, false, 0) {
		t.Fatal("predicted not-taken branch redirected")
	}
}

func TestBTBTargetChange(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		p.Update(0x4000, true, 0x5000)
	}
	// Target changes (e.g. indirect branch): must redirect once, then
	// retrain.
	if !p.Update(0x4000, true, 0x6000) {
		t.Fatal("target change not detected")
	}
	if p.Update(0x4000, true, 0x6000) {
		t.Fatal("retrained target still mispredicts")
	}
}

func TestBTBConflictEviction(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	sets := cfg.BTBEntries / cfg.BTBAssoc
	// Fill one BTB set with assoc+1 branches mapping to the same set.
	base := uint64(0x1000)
	stride := uint64(sets) << 2
	for w := 0; w <= cfg.BTBAssoc; w++ {
		pc := base + uint64(w)*stride
		for i := 0; i < 3; i++ {
			p.Update(pc, true, pc+0x100)
		}
	}
	// The LRU victim (first inserted) must have been evicted: its next
	// taken execution redirects even though its direction is known.
	if !p.Update(base, true, base+0x100) {
		t.Fatal("expected BTB miss after conflict eviction")
	}
}

func TestLookupDoesNotTrain(t *testing.T) {
	p := New(DefaultConfig())
	before := p.Lookup(0x4000)
	for i := 0; i < 50; i++ {
		p.Lookup(0x4000)
	}
	after := p.Lookup(0x4000)
	if before != after {
		t.Fatal("Lookup mutated predictor state")
	}
	if p.Lookups != 0 {
		t.Fatal("Lookup counted as training")
	}
}

func TestMispredictRateAccounting(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		p.Update(0x4000, true, 0x5000)
	}
	if p.Lookups != 100 {
		t.Fatalf("lookups %d", p.Lookups)
	}
	if r := p.MispredictRate(); r < 0 || r > 1 {
		t.Fatalf("rate %v out of range", r)
	}
}

func TestHybridSelectorPicksBetterComponent(t *testing.T) {
	p := New(DefaultConfig())
	// Two branches: one alternating (gshare territory), one biased
	// (either). Train both interleaved; overall accuracy must be high,
	// which requires the selector to route the alternating branch to
	// gshare.
	mis := 0
	const rounds = 600
	for i := 0; i < rounds; i++ {
		if p.Update(0x4000, i%2 == 0, 0x5000) && i > 200 {
			mis++
		}
		if p.Update(0x8000, true, 0x9000) && i > 200 {
			mis++
		}
	}
	if mis > 40 {
		t.Fatalf("%d mispredictions after warm-up; selector not working", mis)
	}
}

// BenchmarkPredictor measures branch predictor train+predict throughput.
func BenchmarkPredictor(b *testing.B) {
	p := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		p.Update(pc, i%3 != 0, pc+16)
	}
}
