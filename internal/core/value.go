package core

import (
	"repro/internal/isa"
)

// neverAvail marks a value as not (yet) readable in a cluster.
const neverAvail = ^uint64(0)

// valueID indexes the machine's value table; noValue means "no value".
type valueID = int32

const noValue valueID = -1

// value is one renamed register instance: the result of one dynamic
// register-writing instruction (or an architectural live-in). It holds
// what dispatch, steering and wakeup read on every instruction — which
// clusters hold (or will hold) a copy, where it occupies physical
// registers, and who waits for it — in 20 bytes. The per-cluster
// availability cycles and read counts live in the table's slabs beside it
// (see valueTable).
type value struct {
	// waitHead heads the list of issue-queue entries whose availability
	// cycle for this value is still unknown in their cluster (a waiter
	// link, see robEntry.waitNext; noWaiter when empty). Lowering an
	// availability cycle wakes the matching entries. Always empty by the
	// time the value is released (consumers issue before the redefining
	// instruction commits).
	waitHead int32
	// copyMask has bit c set when the value is, or will become, readable
	// in cluster c (used by steering: "mapped" clusters).
	copyMask uint32
	// allocMask has bit c set when the value occupies one physical
	// register in cluster c's file of the value's namespace. Released in
	// one shot when the redefining instruction commits.
	allocMask uint32
	// commWaitMask has bit c set while a communication queued in cluster
	// c waits for this value's availability cycle there to become known;
	// the wakeup then stamps the matching comm entries.
	commWaitMask uint32
	kind         isa.RegFileKind
	// home is the cluster whose copy is the architectural one; it is
	// never released by the read-release policy.
	home int8
	// produced reports whether the producing instruction has executed.
	produced bool
	// live distinguishes allocated table slots from free-list slots.
	live bool
}

// valueTable is a free-list slab of values, with two per-cluster slabs
// indexed id*clusters + c beside it:
//
//   - avail holds the first cycle the value is readable by instructions
//     issuing in cluster c; neverAvail until produced/communicated.
//   - readers counts the dispatched-but-not-yet-performed reads of the
//     value from cluster c (consumer operand reads and communication
//     sends). Only the ReleaseOnRead policy keeps it; it stays empty
//     otherwise.
type valueTable struct {
	vals    []value
	avail   []uint64
	readers []uint16
	free    []valueID
	// clusters is the slabs' row width: the machine's cluster count.
	clusters int
	// countReads enables the readers slab (ReleaseOnRead).
	countReads bool
}

// reset empties the table for a machine of the given width, keeping the
// slabs' and the free list's capacity.
func (t *valueTable) reset(clusters int, countReads bool) {
	t.vals = t.vals[:0]
	t.avail = t.avail[:0]
	t.readers = t.readers[:0]
	t.free = t.free[:0]
	t.clusters = clusters
	t.countReads = countReads
}

// alloc returns a fresh value of the given namespace with no copies.
func (t *valueTable) alloc(kind isa.RegFileKind) valueID {
	var id valueID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.vals) < cap(t.vals) {
			t.vals = t.vals[:len(t.vals)+1]
		} else {
			t.vals = append(t.vals, value{})
		}
		id = valueID(len(t.vals) - 1)
		t.avail = growRow(t.avail, t.clusters)
		if t.countReads {
			t.readers = growRow(t.readers, t.clusters)
		}
	}
	v := &t.vals[id]
	*v = value{waitHead: noWaiter, kind: kind, live: true}
	row := int(id) * t.clusters
	avail := t.avail[row : row+t.clusters]
	for i := range avail {
		avail[i] = neverAvail
	}
	if t.countReads {
		clear(t.readers[row : row+t.clusters])
	}
	return id
}

// growRow extends a per-cluster slab by one row of width n, reusing the
// backing array's capacity when it has room.
func growRow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s[:len(s)+n]
	}
	return append(s, make([]T, n)...)
}

// get returns the value for id. The pointer is invalidated by alloc.
func (t *valueTable) get(id valueID) *value { return &t.vals[id] }

// availAt returns a pointer to value id's availability cycle in cluster c.
// It is invalidated by alloc.
func (t *valueTable) availAt(id valueID, c int) *uint64 {
	return &t.avail[int(id)*t.clusters+c]
}

// readersAt returns a pointer to value id's pending-read count from
// cluster c (ReleaseOnRead only). It is invalidated by alloc.
func (t *valueTable) readersAt(id valueID, c int) *uint16 {
	return &t.readers[int(id)*t.clusters+c]
}

// release returns id's slot to the free list. The caller must already
// have released the value's physical registers.
func (t *valueTable) release(id valueID) {
	v := &t.vals[id]
	if !v.live {
		panic("core: double release of value")
	}
	if v.waitHead != noWaiter {
		panic("core: value released with issue-queue waiters")
	}
	v.live = false
	t.free = append(t.free, id)
}

// liveCount returns the number of live values (for leak checks in tests).
func (t *valueTable) liveCount() int {
	n := 0
	for i := range t.vals {
		if t.vals[i].live {
			n++
		}
	}
	return n
}
