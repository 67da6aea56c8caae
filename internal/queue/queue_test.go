package queue

import (
	"testing"
	"testing/quick"
)

func TestBoundedOrderPreserved(t *testing.T) {
	b := NewBounded[int](4)
	for i := 1; i <= 4; i++ {
		if !b.Push(i * 10) {
			t.Fatalf("push %d failed", i)
		}
	}
	if b.Push(50) {
		t.Fatal("push beyond capacity succeeded")
	}
	if !b.Full() || b.Free() != 0 {
		t.Fatal("full accounting wrong")
	}
	for i := 0; i < 4; i++ {
		if *b.At(i) != (i+1)*10 {
			t.Fatalf("At(%d) = %d", i, *b.At(i))
		}
	}
}

func TestBoundedRemoveAtMiddle(t *testing.T) {
	b := NewBounded[int](5)
	for i := 0; i < 5; i++ {
		b.Push(i)
	}
	b.RemoveAt(2)
	want := []int{0, 1, 3, 4}
	if b.Len() != len(want) {
		t.Fatalf("len %d", b.Len())
	}
	for i, w := range want {
		if *b.At(i) != w {
			t.Fatalf("after remove, At(%d) = %d, want %d", i, *b.At(i), w)
		}
	}
	b.RemoveAt(0)
	if *b.At(0) != 1 {
		t.Fatal("remove at head broken")
	}
	b.RemoveAt(b.Len() - 1)
	if *b.At(b.Len() - 1) != 3 {
		t.Fatal("remove at tail broken")
	}
}

func TestBoundedClear(t *testing.T) {
	b := NewBounded[string](2)
	b.Push("x")
	b.Clear()
	if b.Len() != 0 || b.Full() {
		t.Fatal("clear did not empty")
	}
}

func TestBoundedPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewBounded[int](0)
}

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](3)
	idx0, ok := r.Push(100)
	if !ok || idx0 != 0 {
		t.Fatalf("first push idx %d ok %v", idx0, ok)
	}
	r.Push(200)
	r.Push(300)
	if _, ok := r.Push(400); ok {
		t.Fatal("push into full ring succeeded")
	}
	v, ok := r.Pop()
	if !ok || v != 100 {
		t.Fatalf("pop = %d", v)
	}
	idx3, ok := r.Push(400)
	if !ok || idx3 != 3 {
		t.Fatalf("wraparound push idx %d", idx3)
	}
	if r.Head() != 1 || r.Tail() != 4 {
		t.Fatalf("head %d tail %d", r.Head(), r.Tail())
	}
}

func TestRingAbsoluteIndexing(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	r.Pop()
	r.Pop()
	r.Push(4)
	r.Push(5)
	// live: abs 2..5 with values 2..5
	for abs := uint64(2); abs <= 5; abs++ {
		if !r.Contains(abs) {
			t.Fatalf("abs %d not contained", abs)
		}
		if *r.AtAbs(abs) != int(abs) {
			t.Fatalf("AtAbs(%d) = %d", abs, *r.AtAbs(abs))
		}
	}
	if r.Contains(1) || r.Contains(6) {
		t.Fatal("stale/future index contained")
	}
	// Slot positions from Slot(Head()) upward, wrapping at Cap(), visit
	// the live elements oldest-first, on power-of-two and other
	// capacities alike.
	for _, capacity := range []int{4, 5} {
		r := NewRing[int](capacity)
		for i := 0; i < 3; i++ {
			r.Push(i)
			r.Pop()
		}
		for i := 0; i < capacity; i++ {
			r.Push(10 + i)
		}
		hs := r.Slot(r.Head())
		for k := 0; k < r.Len(); k++ {
			s := (hs + k) % r.Cap()
			if s != r.Slot(r.Head()+uint64(k)) || *r.AtSlot(s) != 10+k {
				t.Fatalf("cap %d: position %d holds %d, want %d", capacity, s, *r.AtSlot(s), 10+k)
			}
		}
	}
}

func TestRingReset(t *testing.T) {
	var r Ring[int] // the zero ring is usable after Reset
	r.Reset(4)
	r.Push(1)
	r.Push(2)
	r.Pop()
	r.Reset(4)
	if r.Len() != 0 || r.Head() != 0 || *r.AtSlot(1) != 0 {
		t.Fatalf("Reset left len %d head %d slot %d", r.Len(), r.Head(), *r.AtSlot(1))
	}
	r.Reset(3)
	if r.Cap() != 3 || r.Free() != 3 {
		t.Fatalf("Reset(3): cap %d free %d", r.Cap(), r.Free())
	}
	var b Bounded[int]
	b.Reset(2)
	b.Push(1)
	b.Push(2)
	if b.Push(3) || b.Free() != 0 {
		t.Fatal("Bounded.Reset(2) holds more than 2")
	}
	b.Reset(3)
	if b.Len() != 0 || b.Free() != 3 {
		t.Fatalf("Bounded.Reset(3): len %d free %d", b.Len(), b.Free())
	}
}

func TestRingAtAbsPanicsOutOfRange(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AtAbs did not panic")
		}
	}()
	r.AtAbs(5)
}

func TestRingPopEmpty(t *testing.T) {
	r := NewRing[int](2)
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if r.Peek() != nil {
		t.Fatal("peek on empty returned entry")
	}
}

func TestRingPopZeroesSlot(t *testing.T) {
	r := NewRing[*int](2)
	v := 7
	r.Push(&v)
	r.Pop()
	// The slot must be zeroed so the GC can reclaim; re-push and check
	// the ring still behaves.
	r.Push(nil)
	if got, _ := r.Pop(); got != nil {
		t.Fatal("slot not reset")
	}
}

// TestRingMatchesSliceModel property-checks the ring against a plain
// slice-backed FIFO.
func TestRingMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRing[uint8](8)
		var model []uint8
		for _, op := range ops {
			if op&1 == 0 {
				_, ok := r.Push(op)
				if ok {
					model = append(model, op)
				} else if len(model) != 8 {
					return false
				}
			} else {
				v, ok := r.Pop()
				if ok {
					if len(model) == 0 || model[0] != v {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBoundedMatchesSliceModel property-checks Bounded against a slice.
func TestBoundedMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewBounded[uint8](6)
		var model []uint8
		for _, op := range ops {
			if op&1 == 0 {
				if b.Push(op) {
					model = append(model, op)
				} else if len(model) != 6 {
					return false
				}
			} else if len(model) > 0 {
				i := int(op) % len(model)
				b.RemoveAt(i)
				model = append(model[:i], model[i+1:]...)
			}
			if b.Len() != len(model) {
				return false
			}
			for i, w := range model {
				if *b.At(i) != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
