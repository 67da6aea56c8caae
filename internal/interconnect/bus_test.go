package interconnect

import (
	"testing"
	"testing/quick"
)

func TestDistanceForward(t *testing.T) {
	b := NewBus(8, 1, Forward)
	cases := []struct{ src, dst, want int }{
		{0, 1, 1}, {0, 7, 7}, {7, 0, 1}, {3, 3, 0}, {5, 2, 5},
	}
	for _, c := range cases {
		if got := b.Distance(c.src, c.dst); got != c.want {
			t.Errorf("fwd distance %d->%d = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestDistanceBackward(t *testing.T) {
	b := NewBus(8, 1, Backward)
	cases := []struct{ src, dst, want int }{
		{1, 0, 1}, {0, 7, 1}, {0, 1, 7}, {5, 2, 3},
	}
	for _, c := range cases {
		if got := b.Distance(c.src, c.dst); got != c.want {
			t.Errorf("bwd distance %d->%d = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

// TestTablesMatchModularArithmetic checks the tabulated distance and
// segment against the ring arithmetic they replace, for every ring size the
// window admits at one-cycle hops and both directions.
func TestTablesMatchModularArithmetic(t *testing.T) {
	for n := 2; FitsWindow(n, 1); n++ {
		for _, dir := range []Direction{Forward, Backward} {
			b := NewBus(n, 1, dir)
			for src := 0; src < n; src++ {
				for x := 0; x < n; x++ {
					wantDist := ((int(dir)*(x-src))%n + n) % n
					if got := b.Distance(src, x); got != wantDist {
						t.Fatalf("n=%d %s: distance %d->%d = %d, want %d", n, dir, src, x, got, wantDist)
					}
					wantSeg := ((src+int(dir)*x)%n + n) % n
					if got := b.segment(src, x); got != wantSeg {
						t.Fatalf("n=%d %s: hop %d from %d crosses segment %d, want %d", n, dir, x, src, got, wantSeg)
					}
				}
			}
		}
	}
}

func TestInjectArrival(t *testing.T) {
	b := NewBus(8, 1, Forward)
	if got := b.Inject(0, 0, 3); got != 3 {
		t.Fatalf("arrival %d, want 3", got)
	}
	b2 := NewBus(8, 2, Forward)
	if got := b2.Inject(0, 0, 3); got != 6 {
		t.Fatalf("2-cycle hop arrival %d, want 6", got)
	}
}

func TestSegmentConflict(t *testing.T) {
	b := NewBus(8, 1, Forward)
	if !b.CanInject(0, 0, 2) {
		t.Fatal("empty bus refused injection")
	}
	b.Inject(0, 0, 2) // occupies segment 0 at cycle 0, segment 1 at cycle 1
	if b.CanInject(0, 0, 1) {
		t.Fatal("segment 0 double-booked at cycle 0")
	}
	// A message from cluster 1 at cycle 0 would use segment 1 at cycle 0
	// — free, because the first message only reaches it at cycle 1...
	// but then both occupy segment 1 at cycle 1? No: the second message
	// leaves segment 1 after cycle 0. They pipeline cleanly.
	if !b.CanInject(0, 1, 3) {
		t.Fatal("pipelined same-direction injection refused")
	}
}

func TestLockstepPipelining(t *testing.T) {
	// Every cluster can transmit to its successor simultaneously — the
	// paper's "a datum can be transmitted from every cluster to the
	// following one at the same time".
	b := NewBus(8, 1, Forward)
	for c := 0; c < 8; c++ {
		if !b.CanInject(0, c, (c+1)%8) {
			t.Fatalf("cluster %d refused while others transmit", c)
		}
		b.Inject(0, c, (c+1)%8)
	}
	st := b.Stats()
	if st.Messages != 8 || st.HopsTotal != 8 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFollowOnNextCycle(t *testing.T) {
	b := NewBus(8, 1, Forward)
	b.Inject(0, 0, 4)
	// Next cycle, the same source can inject again behind the first.
	b.Advance(1)
	if !b.CanInject(1, 0, 4) {
		t.Fatal("back-to-back injection from same source refused")
	}
}

func TestAdvanceReleasesSlots(t *testing.T) {
	b := NewBus(4, 1, Forward)
	b.Inject(0, 0, 1)
	for cyc := uint64(1); cyc <= window+2; cyc++ {
		b.Advance(cyc)
	}
	if !b.CanInject(window+2, 0, 1) {
		t.Fatal("slot not released after wraparound")
	}
}

func TestInjectWithoutReservationPanics(t *testing.T) {
	b := NewBus(8, 1, Forward)
	b.Inject(0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double-book did not panic")
		}
	}()
	b.Inject(0, 0, 1)
}

func TestHopLatencyOccupancy(t *testing.T) {
	b := NewBus(8, 2, Forward)
	b.Inject(0, 0, 1) // occupies segment 0 during cycles 0 and 1
	if b.CanInject(1, 0, 1) {
		t.Fatal("segment free during 2-cycle hop occupancy")
	}
	b.Advance(1)
	b.Advance(2)
	if !b.CanInject(2, 0, 1) {
		t.Fatal("segment still busy after hop completed")
	}
}

func TestFabricMinDistance(t *testing.T) {
	ring := NewFabric(8, 2, 1, false).MinDistances() // both forward
	if d := ring[0*8+7]; d != 7 {
		t.Fatalf("ring min distance 0->7 = %d, want 7", d)
	}
	conv := NewFabric(8, 2, 1, true).MinDistances() // one per direction
	if d := conv[0*8+7]; d != 1 {
		t.Fatalf("opposed min distance 0->7 = %d, want 1", d)
	}
	if d := conv[0*8+4]; d != 4 {
		t.Fatalf("opposed min distance 0->4 = %d, want 4", d)
	}
}

func TestFabricTrySendPicksEarliestArrival(t *testing.T) {
	conv := NewFabric(8, 2, 1, true)
	arrival, dist, ok := conv.TrySend(0, 0, 7)
	if !ok || dist != 1 || arrival != 1 {
		t.Fatalf("TrySend 0->7: arrival %d dist %d ok %v", arrival, dist, ok)
	}
}

func TestFabricFallsBackToBusyBus(t *testing.T) {
	conv := NewFabric(8, 2, 1, true)
	// Saturate the backward bus's segment from 0 to 7.
	conv.Buses()[1].Inject(0, 0, 7)
	// 0->7 now cannot use the backward bus this cycle; the forward bus
	// (distance 7) should carry it.
	arrival, dist, ok := conv.TrySend(0, 0, 7)
	if !ok || dist != 7 || arrival != 7 {
		t.Fatalf("fallback TrySend: arrival %d dist %d ok %v", arrival, dist, ok)
	}
}

func TestTrySendFailsWhenAllBusy(t *testing.T) {
	f := NewFabric(4, 1, 1, false)
	f.Buses()[0].Inject(0, 0, 1)
	if _, _, ok := f.TrySend(0, 0, 1); ok {
		t.Fatal("TrySend succeeded on a fully busy path")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBus(1, 1, Forward) },
		func() { NewBus(8, 0, Forward) },
		func() { NewBus(8, 1, Direction(5)) },
		func() { NewFabric(8, 3, 1, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor accepted invalid arguments")
				}
			}()
			fn()
		}()
	}
}

// TestNoDoubleBooking property-checks that any sequence of successful
// injections never overlaps reservations: CanInject->Inject never panics.
func TestNoDoubleBooking(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewBus(8, 1, Forward)
		now := uint64(0)
		for _, op := range ops {
			src := int(op % 8)
			dst := int((op / 8) % 8)
			if src == dst {
				now++
				b.Advance(now)
				continue
			}
			if b.CanInject(now, src, dst) {
				b.Inject(now, src, dst) // must not panic
			} else {
				now++
				b.Advance(now)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConservation: hops recorded equal slot cycles for 1-cycle hops.
func TestStatsConservation(t *testing.T) {
	b := NewBus(8, 1, Forward)
	b.Inject(0, 0, 3)
	b.Advance(1)
	b.Inject(1, 2, 5)
	st := b.Stats()
	if st.HopsTotal != st.SlotCycles {
		t.Fatalf("hops %d != slot cycles %d at hop latency 1", st.HopsTotal, st.SlotCycles)
	}
	if st.Messages != 2 || st.HopsTotal != 6 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "fwd" || Backward.String() != "bwd" {
		t.Fatal("direction labels wrong")
	}
}

func TestAccessors(t *testing.T) {
	b := NewBus(8, 2, Backward)
	if b.N() != 8 || b.Hop() != 2 || b.Dir() != Backward {
		t.Fatal("accessors wrong")
	}
	f := NewFabric(8, 2, 1, true)
	if f.N() != 8 || f.NumBuses() != 2 {
		t.Fatal("fabric accessors wrong")
	}
}

func TestBackwardSegments(t *testing.T) {
	b := NewBus(4, 1, Backward)
	// A message 2->0 crosses segments 2 (2->1) then 1 (1->0).
	b.Inject(0, 2, 0)
	if b.CanInject(0, 2, 1) {
		t.Fatal("backward segment 2 double-booked")
	}
	if !b.CanInject(0, 0, 3) {
		t.Fatal("unrelated backward segment refused")
	}
}

func TestFitsWindow(t *testing.T) {
	if !FitsWindow(8, 4) || !FitsWindow(16, 4) {
		t.Fatal("supported depths rejected")
	}
	if FitsWindow(16, 16) {
		t.Fatal("over-deep ring accepted")
	}
}

func TestFabricStatsAggregate(t *testing.T) {
	f := NewFabric(8, 2, 1, false)
	f.TrySend(0, 0, 2)
	f.TrySend(0, 0, 2) // second bus carries the repeat
	st := f.Stats()
	if st.Messages != 2 || st.HopsTotal != 4 {
		t.Fatalf("fabric stats %+v", st)
	}
}

func TestDeepRingFourCycleHops(t *testing.T) {
	b := NewBus(16, 4, Forward)
	arrival := b.Inject(0, 0, 15)
	if arrival != 60 {
		t.Fatalf("15 hops at 4 cycles each arrived at %d, want 60", arrival)
	}
	for cyc := uint64(1); cyc <= 64; cyc++ {
		b.Advance(cyc)
	}
	if !b.CanInject(64, 0, 15) {
		t.Fatal("path not released after message passed")
	}
}

// BenchmarkBusReservation measures the inner-loop cost of the slot
// calendar (steady state must not allocate).
func BenchmarkBusReservation(b *testing.B) {
	bus := NewBus(8, 1, Forward)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		bus.Advance(now)
		if bus.CanInject(now, i%8, (i+3)%8) {
			bus.Inject(now, i%8, (i+3)%8)
		}
	}
}
