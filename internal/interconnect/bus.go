// Package interconnect models the inter-cluster communication fabric: one
// or more unidirectional, fully pipelined ring buses (Section 3 of the
// paper). A bus moves one value per segment per hop-latency window; being
// fully pipelined, with N clusters and a hop latency of H cycles a single
// bus may carry N*H values simultaneously (the paper's "16 communications
// at a time" for 8 clusters and 2-cycle hops).
//
// Contention is modelled with a per-segment slot calendar: a message from
// cluster s to cluster d reserves segment (s+k) mod N for the H cycles
// beginning at inject+k*H, for k in [0, distance). Because every message
// moves at the same speed in the same direction, checking slots at
// injection time is exact — conflicts can only occur between reservations,
// never mid-flight.
package interconnect

import "fmt"

// Direction is the traversal direction of a ring bus.
type Direction int8

const (
	// Forward moves values from cluster i to cluster i+1 mod N.
	Forward Direction = 1
	// Backward moves values from cluster i to cluster i-1 mod N.
	Backward Direction = -1
)

// String returns "fwd" or "bwd".
func (d Direction) String() string {
	if d == Forward {
		return "fwd"
	}
	return "bwd"
}

// window is the reservation horizon in cycles. It must be a power of two
// with room for the deepest supported ring (16 clusters x 4-cycle hops)
// plus scheduling slack.
const window = 256

// FitsWindow reports whether a ring of n clusters with the given per-hop
// latency fits the reservation window. Configuration validators use this
// to reject over-deep rings before construction.
func FitsWindow(n, hop int) bool { return n*hop < window/2 }

// Stats aggregates one bus's traffic.
type Stats struct {
	// Messages is the number of values carried.
	Messages uint64
	// HopsTotal is the sum of per-message distances.
	HopsTotal uint64
	// SlotCycles is the total segment-cycles occupied.
	SlotCycles uint64
}

// Bus is one unidirectional fully pipelined ring bus. Not safe for
// concurrent use.
type Bus struct {
	n   int
	hop int
	dir Direction
	// dist[src*n+dst] is the hop count from src to dst and seg[src*n+k] the
	// segment crossed on the k-th hop from src, both tabulated at
	// construction: every communication asks several times, and the ring
	// size is not a constant the compiler could divide by cheaply.
	dist, seg []int8
	cal       []bool   // cal[(cycle%window)*n + seg] => reserved
	occRow    []uint16 // reserved slots per calendar row (cycle%window)
	occupied  int      // reserved slot-cycles still in the calendar
	stats     Stats
	now       uint64
}

// NewBus creates a bus over n clusters with the given per-hop latency and
// direction. It panics if n < 2 or hop < 1 (construction-time programmer
// error).
func NewBus(n, hop int, dir Direction) *Bus {
	if n < 2 {
		panic(fmt.Sprintf("interconnect: bus over %d clusters", n))
	}
	if hop < 1 {
		panic("interconnect: hop latency must be >= 1")
	}
	if !FitsWindow(n, hop) {
		panic("interconnect: ring too deep for reservation window")
	}
	if dir != Forward && dir != Backward {
		panic("interconnect: bad direction")
	}
	b := &Bus{
		n:      n,
		hop:    hop,
		dist:   make([]int8, n*n),
		seg:    make([]int8, n*n),
		cal:    make([]bool, n*window),
		occRow: make([]uint16, window),
	}
	b.setDir(dir)
	return b
}

// setDir points the bus in direction dir and tabulates dist and seg for
// it, in place.
func (b *Bus) setDir(dir Direction) {
	b.dir = dir
	n := b.n
	// FitsWindow keeps n under 128, so both tables fit int8.
	for src := 0; src < n; src++ {
		for k := 0; k < n; k++ {
			// The cluster k hops from src in the bus direction: k is the
			// distance to it, and hop k (from 0) crosses the link leaving it.
			at := ((src+int(dir)*k)%n + n) % n
			b.dist[src*n+at] = int8(k)
			b.seg[src*n+k] = int8(at)
		}
	}
}

// Reset clears the slot calendar, clock and statistics, returning the bus
// to its just-constructed state.
func (b *Bus) Reset() {
	clear(b.cal)
	clear(b.occRow)
	b.occupied = 0
	b.stats = Stats{}
	b.now = 0
}

// N returns the number of clusters on the ring.
func (b *Bus) N() int { return b.n }

// Hop returns the per-hop latency in cycles.
func (b *Bus) Hop() int { return b.hop }

// Dir returns the bus direction.
func (b *Bus) Dir() Direction { return b.dir }

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() Stats { return b.stats }

// Distance returns the number of hops a message from src to dst travels on
// this bus. src and dst must be clusters in [0, N).
func (b *Bus) Distance(src, dst int) int { return int(b.dist[src*b.n+dst]) }

// segment returns the segment index crossed on the k-th hop from src, k in
// [0, N). Segment s is the link between cluster s and its successor in the
// bus direction.
func (b *Bus) segment(src, k int) int { return int(b.seg[src*b.n+k]) }

// Advance moves the bus clock to cycle now, releasing slots that belong to
// expired cycles so the circular calendar can represent the new horizon.
// It must be called with non-decreasing values, and before every
// CanInject or Inject at a later cycle; a call may jump any number of
// cycles (the core advances the fabric only when it sends).
func (b *Bus) Advance(now uint64) {
	for b.now < now {
		if b.occupied == 0 {
			// Empty calendar: nothing to release, just move the clock.
			b.now = now
			return
		}
		r := int(b.now % window)
		if c := b.occRow[r]; c != 0 {
			base := r * b.n
			clear(b.cal[base : base+b.n])
			b.occRow[r] = 0
			b.occupied -= int(c)
		}
		b.now++
	}
}

// free reports whether the given segment is free during the hop-latency
// slots beginning at cycle start.
func (b *Bus) free(seg int, start uint64) bool {
	for c := uint64(0); c < uint64(b.hop); c++ {
		if b.cal[int((start+c)%window)*b.n+seg] {
			return false
		}
	}
	return true
}

// CanInject reports whether a message from src to dst can begin its
// traversal at cycle now (which must be >= the cycle last passed to
// Advance and within the reservation window).
func (b *Bus) CanInject(now uint64, src, dst int) bool {
	dist := b.Distance(src, dst)
	if dist == 0 {
		return true
	}
	if now < b.now || now-b.now+uint64(dist*b.hop) >= window {
		return false
	}
	for k := 0; k < dist; k++ {
		if !b.free(b.segment(src, k), now+uint64(k*b.hop)) {
			return false
		}
	}
	return true
}

// Inject reserves the path for a message from src to dst starting at cycle
// now and returns the arrival cycle (when the value is visible in dst's
// register file). The caller must have verified CanInject in the same
// cycle. Distance-zero messages arrive immediately.
func (b *Bus) Inject(now uint64, src, dst int) (arrival uint64) {
	dist := b.Distance(src, dst)
	if dist == 0 {
		return now
	}
	for k := 0; k < dist; k++ {
		seg := b.segment(src, k)
		start := now + uint64(k*b.hop)
		for c := uint64(0); c < uint64(b.hop); c++ {
			r := int((start + c) % window)
			slot := r*b.n + seg
			if b.cal[slot] {
				panic("interconnect: Inject without CanInject")
			}
			b.cal[slot] = true
			b.occRow[r]++
			b.occupied++
		}
	}
	b.stats.Messages++
	b.stats.HopsTotal += uint64(dist)
	b.stats.SlotCycles += uint64(dist * b.hop)
	return now + uint64(dist*b.hop)
}

// Fabric is the set of buses available to one machine, with the selection
// policy the paper describes: Ring uses same-direction buses; Conv with two
// buses uses one per direction and picks the shorter path.
type Fabric struct {
	buses []*Bus
	n     int
	// minDist[src*n+dst] is the smallest hop count over any bus,
	// precomputed at construction: steering builds its reach masks from
	// it, and dispatch consults it per communicated operand.
	minDist []int8
	opposed bool
	hop     int
}

// NewFabric builds a fabric over n clusters. numBuses is 1 or 2; hop is
// the per-hop latency. If opposed is true the second bus runs Backward
// (Conv's 2-bus layout); otherwise all buses run Forward (Ring's layout).
func NewFabric(n, numBuses, hop int, opposed bool) *Fabric {
	if numBuses < 1 || numBuses > 2 {
		panic(fmt.Sprintf("interconnect: %d buses unsupported", numBuses))
	}
	f := &Fabric{n: n, opposed: opposed, hop: hop, minDist: make([]int8, n*n)}
	f.buses = append(f.buses, NewBus(n, hop, Forward))
	if numBuses == 2 {
		f.buses = append(f.buses, NewBus(n, hop, secondDir(opposed)))
	}
	f.tabulate()
	return f
}

// secondDir is the direction of a two-bus fabric's second bus.
func secondDir(opposed bool) Direction {
	if opposed {
		return Backward
	}
	return Forward
}

// tabulate fills minDist from the buses' distance tables.
func (f *Fabric) tabulate() {
	n := f.n
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			best := f.buses[0].Distance(src, dst)
			for _, b := range f.buses[1:] {
				if d := b.Distance(src, dst); d < best {
					best = d
				}
			}
			f.minDist[src*n+dst] = int8(best)
		}
	}
}

// Reset returns the fabric to its just-constructed state when its shape
// matches the requested one, reporting whether it did; a false return
// means the caller must build a fresh fabric with NewFabric. Only the
// direction of a second bus may differ: its tables and minDist are then
// re-derived in place.
func (f *Fabric) Reset(n, numBuses, hop int, opposed bool) bool {
	if f.n != n || len(f.buses) != numBuses || f.hop != hop {
		return false
	}
	for _, b := range f.buses {
		b.Reset()
	}
	// One bus runs forward whatever opposed says.
	if numBuses == 2 && f.opposed != opposed {
		f.opposed = opposed
		f.buses[1].setDir(secondDir(opposed))
		f.tabulate()
	}
	return true
}

// N returns the number of clusters.
func (f *Fabric) N() int { return f.n }

// NumBuses returns the number of buses.
func (f *Fabric) NumBuses() int { return len(f.buses) }

// Buses returns the underlying buses (for stats inspection).
func (f *Fabric) Buses() []*Bus { return f.buses }

// Advance ticks every bus to cycle now.
func (f *Fabric) Advance(now uint64) {
	for _, b := range f.buses {
		b.Advance(now)
	}
}

// MinDistances exposes the precomputed n×n distance matrix (row-major by
// source). The core caches it for dispatch and hands it to the steering
// policies; callers must not modify it.
func (f *Fabric) MinDistances() []int8 { return f.minDist }

// TrySend attempts to inject a message from src to dst at cycle now on the
// bus that yields the earliest arrival among those that can inject this
// cycle. It returns the arrival cycle and the hop distance travelled, or
// ok=false if every suitable bus is busy.
func (f *Fabric) TrySend(now uint64, src, dst int) (arrival uint64, dist int, ok bool) {
	if len(f.buses) == 1 {
		// Single bus: check-and-reserve in one pass.
		b := f.buses[0]
		if !b.CanInject(now, src, dst) {
			return 0, 0, false
		}
		d := b.Distance(src, dst)
		return b.Inject(now, src, dst), d, true
	}
	bestBus := -1
	bestArrival := uint64(0)
	for i, b := range f.buses {
		if !b.CanInject(now, src, dst) {
			continue
		}
		a := now + uint64(b.Distance(src, dst)*b.hop)
		if bestBus < 0 || a < bestArrival {
			bestBus, bestArrival = i, a
		}
	}
	if bestBus < 0 {
		return 0, 0, false
	}
	b := f.buses[bestBus]
	d := b.Distance(src, dst)
	return b.Inject(now, src, dst), d, true
}

// Stats sums the traffic counters over all buses.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, b := range f.buses {
		bs := b.Stats()
		s.Messages += bs.Messages
		s.HopsTotal += bs.HopsTotal
		s.SlotCycles += bs.SlotCycles
	}
	return s
}
