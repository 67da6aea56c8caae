package core

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// TestHotStructSizes pins the sizes the kernel's memory layout is built
// around: a ROB entry fills one 64-byte cache line, and a value's hot
// part stays small, its per-cluster cycles living in the table's slab.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(robEntry{}); got != 64 {
		t.Errorf("robEntry is %d bytes, want 64 (one cache line)", got)
	}
	if got := unsafe.Sizeof(value{}); got > 24 {
		t.Errorf("value is %d bytes, want at most 24", got)
	}
}

// TestStoreTableMatchesMap: the load/store forwarding table behaves as a
// map from address to LSQ index under the machine's use — puts that
// replace, lookups, and deletions from the middle of probe runs — with
// addresses drawn from a small range so probe runs collide and wrap.
func TestStoreTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var tab storeTable
	for trial := 0; trial < 50; trial++ {
		lsq := 1 + r.IntN(64)
		tab.reset(lsq)
		want := map[uint64]uint64{}
		for op := 0; op < 5000; op++ {
			addr := uint64(r.IntN(3*lsq)) * 8
			switch k := r.IntN(3); {
			case k == 0 && len(want) < lsq:
				idx := r.Uint64N(1 << 40)
				tab.put(addr, idx)
				want[addr] = idx
			case k == 1:
				if i := tab.find(addr); i >= 0 {
					tab.remove(i)
				}
				delete(want, addr)
			}
			got, ok := tab.get(addr)
			if w, wok := want[addr]; ok != wok || got != w {
				t.Fatalf("trial %d op %d: get(%d) = %d, %v; want %d, %v", trial, op, addr, got, ok, w, wok)
			}
		}
		for addr, w := range want {
			if got, ok := tab.get(addr); !ok || got != w {
				t.Fatalf("trial %d: get(%d) = %d, %v at the end; want %d", trial, addr, got, ok, w)
			}
		}
	}
}
