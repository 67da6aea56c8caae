package regfile

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestAllocReleaseAccounting(t *testing.T) {
	f := New(4, 8, 6)
	if f.Free(0, isa.IntReg) != 8 || f.Free(0, isa.FPReg) != 6 {
		t.Fatal("wrong initial capacity")
	}
	if !f.Alloc(0, isa.IntReg) {
		t.Fatal("allocation failed with free registers")
	}
	if f.Free(0, isa.IntReg) != 7 || f.Used(0, isa.IntReg) != 1 {
		t.Fatal("allocation not accounted")
	}
	if f.Free(1, isa.IntReg) != 8 {
		t.Fatal("allocation leaked into another cluster")
	}
	f.Release(0, isa.IntReg)
	if f.Free(0, isa.IntReg) != 8 {
		t.Fatal("release not accounted")
	}
}

func TestAllocExhaustion(t *testing.T) {
	f := New(2, 3, 3)
	for i := 0; i < 3; i++ {
		if !f.Alloc(1, isa.FPReg) {
			t.Fatal("allocation failed early")
		}
	}
	if f.Alloc(1, isa.FPReg) {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if f.StallEvents != 1 {
		t.Fatalf("stall events %d", f.StallEvents)
	}
	if !f.CanAlloc(0, isa.FPReg) {
		t.Fatal("other cluster affected by exhaustion")
	}
}

func TestReleaseOnEmptyPanics(t *testing.T) {
	f := New(2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release(0, isa.IntReg)
}

func TestReleaseMask(t *testing.T) {
	f := New(4, 4, 4)
	f.Alloc(0, isa.IntReg)
	f.Alloc(2, isa.IntReg)
	f.Alloc(3, isa.IntReg)
	f.ReleaseMask(0b1101, isa.IntReg)
	for c := 0; c < 4; c++ {
		if f.Used(c, isa.IntReg) != 0 {
			t.Fatalf("cluster %d still has %d used", c, f.Used(c, isa.IntReg))
		}
	}
}

func TestTotalUsed(t *testing.T) {
	f := New(3, 4, 4)
	f.Alloc(0, isa.FPReg)
	f.Alloc(2, isa.FPReg)
	if f.TotalUsed(isa.FPReg) != 2 || f.TotalUsed(isa.IntReg) != 0 {
		t.Fatal("TotalUsed wrong")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 4, 4) },
		func() { New(MaxClusters+1, 4, 4) },
		func() { New(2, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction accepted")
				}
			}()
			fn()
		}()
	}
}

// TestConservationProperty: after any alloc/release sequence with releases
// bounded by allocations per cluster, used counts stay within [0, cap].
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		files := New(4, 6, 6)
		var used [4][2]int
		for _, op := range ops {
			c := int(op % 4)
			kind := isa.RegFileKind((op / 4) % 2)
			if op&0x80 != 0 && used[c][kind] > 0 {
				files.Release(c, kind)
				used[c][kind]--
			} else if op&0x80 == 0 {
				if files.Alloc(c, kind) {
					used[c][kind]++
				} else if used[c][kind] != 6 {
					return false // refused below capacity
				}
			}
			if files.Used(c, kind) != used[c][kind] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
