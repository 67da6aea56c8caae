package cache

import (
	"math"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Config{Name: "T", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitLatency: 1})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 32, Assoc: 2},
		{Name: "b", SizeBytes: 1024, LineBytes: 33, Assoc: 2},
		{Name: "c", SizeBytes: 1024, LineBytes: 32, Assoc: 3}, // 32 lines not divisible into pow2 sets by 3
		{Name: "d", SizeBytes: 96, LineBytes: 32, Assoc: 1},   // 3 sets, not pow2
		{Name: "e", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitLatency: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s accepted", cfg.Name)
		}
	}
	good := Config{Name: "ok", SizeBytes: 32 << 10, LineBytes: 32, Assoc: 4, HitLatency: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if hit, _, _ := c.Access(0x100, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x100, false); !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if hit, _, _ := c.Access(0x11F, false); !hit {
		t.Fatal("same-line access missed")
	}
	if hit, _, _ := c.Access(0x120, false); hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 16 sets, 2 ways, 32B lines
	setStride := uint64(16 * 32)
	a, b, d := uint64(0), setStride, 2*setStride // same set
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(d) {
		t.Fatal("new line not resident")
	}
}

// TestLRUAcrossStampWrap: the victim is the true least recently used
// line even when the access clock crosses 2^32, which one level of a run
// of about 10^10 instructions reaches.
func TestLRUAcrossStampWrap(t *testing.T) {
	c := smallCache() // 16 sets, 2 ways, 32B lines
	c.lruClock = math.MaxUint32 - 1
	setStride := uint64(16 * 32)
	a, b, d := uint64(0), setStride, 2*setStride // same set
	c.Access(a, false)                           // stamped just below the wrap
	c.Access(b, false)                           // stamped just past it
	c.Access(d, false)                           // evicts a, the LRU line
	if c.Contains(a) {
		t.Fatal("the least recently used line survived the wrap")
	}
	if !c.Contains(b) || !c.Contains(d) {
		t.Fatal("a more recently used line was evicted across the wrap")
	}
}

func TestWritebackDirtyOnly(t *testing.T) {
	c := smallCache()
	setStride := uint64(16 * 32)
	c.Access(0, true) // dirty
	c.Access(setStride, false)
	_, wbAddr, needWB := c.Access(2*setStride, false) // evicts line 0 (dirty, LRU)
	if !needWB {
		t.Fatal("dirty eviction produced no writeback")
	}
	if wbAddr != 0 {
		t.Fatalf("writeback address %#x, want 0", wbAddr)
	}
	// Clean eviction: no writeback.
	_, _, needWB = c.Access(3*setStride, false) // evicts setStride (clean)
	if needWB {
		t.Fatal("clean eviction produced a writeback")
	}
}

func TestStatsCounting(t *testing.T) {
	c := smallCache()
	c.Access(0, false)
	c.Access(0, false)
	c.Access(64, false)
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
	if mr := st.MissRate(); mr < 0.66 || mr > 0.67 {
		t.Fatalf("miss rate %v", mr)
	}
}

func TestContainsDoesNotMutate(t *testing.T) {
	c := smallCache()
	c.Access(0, false)
	before := c.Stats()
	c.Contains(0)
	c.Contains(0x10000)
	if c.Stats() != before {
		t.Fatal("Contains changed statistics")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	cfg := h.Config()

	coldData := h.DataAccess(0x1000, false)
	wantCold := cfg.L1D.HitLatency + cfg.L2.HitLatency + cfg.L2InterchunkLatency + cfg.L2MissLatency
	if coldData != wantCold {
		t.Fatalf("cold data access latency %d, want %d", coldData, wantCold)
	}
	warm := h.DataAccess(0x1000, false)
	if warm != cfg.L1D.HitLatency {
		t.Fatalf("warm data access latency %d, want %d", warm, cfg.L1D.HitLatency)
	}

	// Evict from L1 but not L2: an address mapping to the same L1 set.
	// L1D is 32KB 4-way 32B: 256 sets, set stride 8KB. 5 conflicting
	// lines overflow a 4-way set.
	for i := 1; i <= 4; i++ {
		h.DataAccess(0x1000+uint64(i)*8192, false)
	}
	l2Hit := h.DataAccess(0x1000, false)
	want := cfg.L1D.HitLatency + cfg.L2.HitLatency + cfg.L2InterchunkLatency
	if l2Hit != want {
		t.Fatalf("L2 hit latency %d, want %d", l2Hit, want)
	}
}

func TestInstFetchLatency(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	cold := h.InstFetch(0x4000)
	if cold <= h.Config().L1I.HitLatency {
		t.Fatalf("cold fetch latency %d", cold)
	}
	if warm := h.InstFetch(0x4000); warm != h.Config().L1I.HitLatency {
		t.Fatalf("warm fetch latency %d", warm)
	}
}

// TestCacheAgainstReferenceModel property-checks the cache against a
// naive reference: after any access sequence, re-accessing the most
// recently touched line in a set must hit.
func TestCacheAgainstReferenceModel(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		var last uint64
		touched := false
		for _, a := range addrs {
			addr := uint64(a) * 8
			c.Access(addr, false)
			last = addr
			touched = true
		}
		if !touched {
			return true
		}
		hit, _, _ := c.Access(last, false)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestResidencyBounded checks the structural invariant that a set never
// holds more lines than its associativity (indirectly: accessing assoc
// distinct conflicting lines keeps them all resident; one more evicts
// exactly one).
func TestResidencyBounded(t *testing.T) {
	c := smallCache()
	setStride := uint64(16 * 32)
	for i := 0; i < 2; i++ {
		c.Access(uint64(i)*setStride, false)
	}
	if !c.Contains(0) || !c.Contains(setStride) {
		t.Fatal("both ways should be resident")
	}
	c.Access(2*setStride, false)
	resident := 0
	for i := 0; i < 3; i++ {
		if c.Contains(uint64(i) * setStride) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("%d lines resident in a 2-way set", resident)
	}
}

// BenchmarkCacheAccess measures the data-cache timing-model throughput.
func BenchmarkCacheAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchy())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DataAccess(uint64(i*64)&0xFFFFF, i%4 == 0)
	}
}
