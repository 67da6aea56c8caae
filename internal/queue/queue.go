// Package queue provides the bounded containers the pipeline is built
// from: an order-preserving issue buffer that supports removal from the
// middle (instructions issue out of order but are scanned oldest-first),
// and a circular FIFO used for the reorder buffer, fetch queue and
// load/store queue.
package queue

import "fmt"

// Bounded is an order-preserving buffer with a fixed capacity and removal
// at arbitrary positions. Elements keep their relative insertion order;
// scanning index 0..Len()-1 visits oldest to youngest. Removal compacts in
// place, which is cheap at the 16-32 entry sizes issue queues have.
type Bounded[T any] struct {
	items []T
	cap   int
}

// NewBounded returns an empty buffer with the given capacity. It panics if
// capacity is not positive.
func NewBounded[T any](capacity int) *Bounded[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	return &Bounded[T]{items: make([]T, 0, capacity), cap: capacity}
}

// Len returns the number of buffered elements.
func (b *Bounded[T]) Len() int { return len(b.items) }

// Free returns the remaining capacity.
func (b *Bounded[T]) Free() int { return b.cap - len(b.items) }

// Full reports whether no space remains.
func (b *Bounded[T]) Full() bool { return len(b.items) >= b.cap }

// Push appends v as the youngest element. It returns false when full.
func (b *Bounded[T]) Push(v T) bool {
	if len(b.items) >= b.cap {
		return false
	}
	b.items = append(b.items, v)
	return true
}

// At returns a pointer to the i-th oldest element. The pointer is
// invalidated by Push and RemoveAt.
func (b *Bounded[T]) At(i int) *T { return &b.items[i] }

// RemoveAt deletes the i-th oldest element, preserving order.
func (b *Bounded[T]) RemoveAt(i int) {
	copy(b.items[i:], b.items[i+1:])
	b.items = b.items[:len(b.items)-1]
}

// Clear empties the buffer.
func (b *Bounded[T]) Clear() { b.items = b.items[:0] }

// Reset empties the buffer and sets its capacity, reusing the backing
// array when it is large enough. It makes the zero Bounded usable; it
// panics if capacity is not positive.
func (b *Bounded[T]) Reset(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	if cap(b.items) < capacity {
		b.items = make([]T, 0, capacity)
	}
	b.items, b.cap = b.items[:0], capacity
}

// Ring is a bounded FIFO over a circular slice: the reorder buffer, fetch
// queue and LSQ. Entries are addressed by stable absolute indices (Head()
// .. Head()+Len()-1) so pipeline structures can hold references to ROB
// slots that survive pops of older entries... indices grow monotonically.
type Ring[T any] struct {
	buf   []T
	mask  uint64 // len(buf)-1 when the capacity is a power of two, else 0
	head  uint64 // absolute index of oldest element
	count int
}

// NewRing returns an empty ring with the given capacity (must be > 0).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	return &Ring[T]{buf: make([]T, capacity), mask: pow2Mask(capacity)}
}

// pow2Mask returns capacity-1 when capacity is a power of two, else 0.
func pow2Mask(capacity int) uint64 {
	if capacity&(capacity-1) == 0 {
		return uint64(capacity - 1)
	}
	return 0
}

// slot maps an absolute index to a buffer position. Pipeline capacities
// are powers of two in practice, turning the modulo into a mask.
func (r *Ring[T]) slot(idx uint64) int {
	if r.mask != 0 {
		return int(idx & r.mask)
	}
	return int(idx % uint64(len(r.buf)))
}

// Len returns the number of elements.
func (r *Ring[T]) Len() int { return r.count }

// Cap returns the capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Free returns remaining capacity.
func (r *Ring[T]) Free() int { return len(r.buf) - r.count }

// Full reports whether no space remains.
func (r *Ring[T]) Full() bool { return r.count >= len(r.buf) }

// Head returns the absolute index of the oldest element. Valid only when
// Len() > 0, but callable anytime (it returns the index the next oldest
// element will have).
func (r *Ring[T]) Head() uint64 { return r.head }

// Tail returns the absolute index one past the youngest element; the next
// Push stores at this index.
func (r *Ring[T]) Tail() uint64 { return r.head + uint64(r.count) }

// Push appends v and returns its absolute index. ok is false when full.
func (r *Ring[T]) Push(v T) (idx uint64, ok bool) {
	if r.count >= len(r.buf) {
		return 0, false
	}
	idx = r.head + uint64(r.count)
	r.buf[r.slot(idx)] = v
	r.count++
	return idx, true
}

// PushRef claims the next slot and returns a pointer to it for in-place
// construction, avoiding a pass-by-value copy. The slot may hold a stale
// element (see Drop); the caller must overwrite it entirely. ok is false
// when full.
func (r *Ring[T]) PushRef() (p *T, ok bool) {
	if r.count >= len(r.buf) {
		return nil, false
	}
	p = &r.buf[r.slot(r.head+uint64(r.count))]
	r.count++
	return p, true
}

// Pop removes and returns the oldest element. ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.count == 0 {
		return v, false
	}
	s := r.slot(r.head)
	v = r.buf[s]
	var zero T
	r.buf[s] = zero
	r.head++
	r.count--
	return v, true
}

// Drop removes the oldest element without returning it. Unlike Pop it
// does not clear the vacated slot — element types holding pointers should
// prefer Pop so the slot does not retain garbage.
func (r *Ring[T]) Drop() {
	if r.count == 0 {
		panic("queue: Drop on empty ring")
	}
	r.head++
	r.count--
}

// Peek returns a pointer to the oldest element, or nil when empty.
func (r *Ring[T]) Peek() *T {
	if r.count == 0 {
		return nil
	}
	return &r.buf[r.slot(r.head)]
}

// AtAbs returns a pointer to the element at absolute index idx. It panics
// if idx is outside [Head(), Tail()).
func (r *Ring[T]) AtAbs(idx uint64) *T {
	if idx-r.head >= uint64(r.count) {
		panic(rangeError{idx, r.head, r.head + uint64(r.count)})
	}
	return &r.buf[r.slot(idx)]
}

// rangeError is AtAbs's panic value. Formatting happens only if the panic
// is printed, which keeps AtAbs small enough to inline.
type rangeError struct{ idx, head, tail uint64 }

func (e rangeError) Error() string {
	return fmt.Sprintf("queue: absolute index %d outside [%d,%d)", e.idx, e.head, e.tail)
}

// Slot returns the buffer position, in [0, Cap()), of absolute index idx.
// Consecutive indices occupy consecutive positions modulo Cap(), so a
// scan of positions from Slot(Head()) upward, wrapping at Cap(), visits
// the elements oldest-first.
func (r *Ring[T]) Slot(idx uint64) int { return r.slot(idx) }

// AtSlot returns a pointer to the element at buffer position s (see
// Slot). The caller must know the position holds a live element.
func (r *Ring[T]) AtSlot(s int) *T { return &r.buf[s] }

// Contains reports whether absolute index idx addresses a live element.
func (r *Ring[T]) Contains(idx uint64) bool {
	return idx >= r.head && idx < r.head+uint64(r.count)
}

// Reset empties the ring and sets its capacity (must be > 0), reusing the
// buffer when the capacity matches; absolute indices restart at zero. It
// makes the zero Ring usable, so a ring can be embedded by value.
func (r *Ring[T]) Reset(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	if len(r.buf) != capacity {
		r.buf = make([]T, capacity)
	} else {
		clear(r.buf)
	}
	r.mask = pow2Mask(capacity)
	r.head = 0
	r.count = 0
}
