// Package regfile tracks physical register occupancy in the distributed
// register files of a clustered machine: one integer and one FP file per
// cluster, each with a fixed capacity (paper Table 2: 64+64 per cluster at
// 4 clusters, 48+48 at 8 clusters).
//
// The package is a pure allocator: it counts registers, it does not store
// values. Which value occupies which register is tracked by the core's
// value table; steering consults Free counts to break ties ("the cluster
// with more free registers"), and dispatch stalls when the file a new
// value needs is exhausted.
package regfile

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// MaxClusters bounds the cluster count supported by fixed-size structures
// across the simulator.
const MaxClusters = 16

// Files is the register occupancy state of every cluster. The zero value
// is unusable; construct with New, or Reset a zero Files in place.
type Files struct {
	n        int
	capacity [2]int // per kind
	used     [MaxClusters][2]int
	total    [2]int // running sum of used over clusters, per kind

	// Stats
	AllocCount   [2]uint64
	ReleaseCount [2]uint64
	StallEvents  uint64
}

// New creates files for n clusters with capInt integer and capFP floating
// point registers per cluster. It panics on out-of-range arguments
// (configurations are programmer-supplied).
func New(n, capInt, capFP int) *Files {
	if n < 1 || n > MaxClusters {
		panic(fmt.Sprintf("regfile: %d clusters out of range", n))
	}
	if capInt < 1 || capFP < 1 {
		panic("regfile: non-positive capacity")
	}
	return &Files{n: n, capacity: [2]int{capInt, capFP}}
}

// Reset re-dimensions the files and clears all occupancy and statistics,
// leaving the struct as New would have built it. Argument validation
// matches New.
func (f *Files) Reset(n, capInt, capFP int) {
	if n < 1 || n > MaxClusters {
		panic(fmt.Sprintf("regfile: %d clusters out of range", n))
	}
	if capInt < 1 || capFP < 1 {
		panic("regfile: non-positive capacity")
	}
	*f = Files{n: n, capacity: [2]int{capInt, capFP}}
}

// N returns the number of clusters.
func (f *Files) N() int { return f.n }

// Capacity returns the per-cluster capacity for the given namespace.
func (f *Files) Capacity(kind isa.RegFileKind) int { return f.capacity[kind] }

// Free returns the number of unallocated registers of the given namespace
// in cluster c.
func (f *Files) Free(c int, kind isa.RegFileKind) int {
	return f.capacity[kind] - f.used[c][kind]
}

// Used returns the number of allocated registers.
func (f *Files) Used(c int, kind isa.RegFileKind) int { return f.used[c][kind] }

// CanAlloc reports whether one register of the namespace is available in
// cluster c.
func (f *Files) CanAlloc(c int, kind isa.RegFileKind) bool {
	return f.used[c][kind] < f.capacity[kind]
}

// Alloc takes one register in cluster c. It returns false (and records a
// stall event) if the file is full.
func (f *Files) Alloc(c int, kind isa.RegFileKind) bool {
	if f.used[c][kind] >= f.capacity[kind] {
		f.StallEvents++
		return false
	}
	f.used[c][kind]++
	f.total[kind]++
	f.AllocCount[kind]++
	return true
}

// Release returns one register to cluster c. It panics if the file is
// already empty, which indicates double-release — an accounting bug.
func (f *Files) Release(c int, kind isa.RegFileKind) {
	if f.used[c][kind] <= 0 {
		panic(emptyRelease{c, kind})
	}
	f.used[c][kind]--
	f.total[kind]--
	f.ReleaseCount[kind]++
}

// emptyRelease is Release's panic value. Formatting happens only if the
// panic is printed, which keeps Release small enough to inline.
type emptyRelease struct {
	c    int
	kind isa.RegFileKind
}

func (e emptyRelease) Error() string {
	return fmt.Sprintf("regfile: release on empty file (cluster %d, %v)", e.c, e.kind)
}

// ReleaseMask returns one register of the namespace in every cluster whose
// bit is set in mask.
func (f *Files) ReleaseMask(mask uint32, kind isa.RegFileKind) {
	for mask != 0 {
		c := bits.TrailingZeros32(mask)
		mask &= mask - 1
		f.Release(c, kind)
	}
}

// TotalUsed returns the allocated registers of the namespace summed over
// all clusters (maintained incrementally; called twice per dispatch).
func (f *Files) TotalUsed(kind isa.RegFileKind) int {
	return f.total[kind]
}
