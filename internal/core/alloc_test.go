package core

import (
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSteadyStateAllocations pins the allocation budget of the hot cycle
// loop: once the machine is warm (event-calendar slices, ready lists,
// value-table slab and waiter lists at their high-water marks), stepping
// must not allocate. The budget tolerates a handful of stragglers (a
// slice crossing a new high-water mark) but fails on any per-cycle or
// per-instruction allocation pattern.
func TestSteadyStateAllocations(t *testing.T) {
	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := trace.Collect(trace.NewLimit(gen, 120_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(MustPaperConfig(ArchRing, 8, 2, 1), trace.NewSlice(insts))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: grow every internal buffer to its steady-state size.
	for i := 0; i < 30_000; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	const stepsPerRun = 5_000
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < stepsPerRun; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if m.Done() {
			t.Fatal("trace exhausted during measurement; enlarge the collected slice")
		}
	})
	// The bound tolerates rare high-water-mark growth (a calendar slot or
	// waiter list exceeding its previous capacity) but is ~3 orders of
	// magnitude below a per-instruction allocation pattern: 5000 cycles
	// commit ~7000 instructions here.
	if avg > 16 {
		t.Fatalf("steady-state cycle loop allocates: %.1f allocs per %d cycles (want <= 16)", avg, stepsPerRun)
	}
}

// TestResetIsAllocationFree: a machine recycled across Ring and Conv
// runs re-initialises its steering policy in place, and with two buses
// turns its second bus around in place too, so once it has held both a
// reset allocates nothing, and every run on the recycled machine reports
// the Stats of a freshly built one bit for bit.
func TestResetIsAllocationFree(t *testing.T) {
	tr := genSlice(t, "gcc", 0, 20_000)
	for _, buses := range []int{1, 2} {
		ring, conv := MustPaperConfig(ArchRing, 8, 2, buses), MustPaperConfig(ArchConv, 8, 2, buses)
		seq := []Config{ring, conv, ring}
		m, err := New(conv, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range seq {
			tr.Reset()
			fresh, err := New(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			tr.Reset()
			if err := m.Reset(cfg, tr); err != nil {
				t.Fatal(err)
			}
			got, err := m.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d buses, run %d (%s) on the recycled machine:\n got %+v\nwant %+v", buses, i, cfg.Name, got, want)
			}
		}
		empty := trace.NewSlice(nil)
		allocs := testing.AllocsPerRun(10, func() {
			for _, cfg := range seq {
				if err := m.Reset(cfg, empty); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%d buses: a Ring→Conv→Ring reset sequence allocates %.1f times, want 0", buses, allocs)
		}
	}
}
