// Package steering implements the cluster-assignment policies the paper
// evaluates:
//
//   - Ring: the dependence-based policy of Section 3.1, which follows
//     operands and breaks ties toward the cluster with more free
//     registers. On the ring machine this policy is inherently
//     workload-balanced.
//   - Conv: the state-of-the-art policy of Section 4.1 (after Parcerisa
//     et al., PACT'02), which follows dependences but overrides them with
//     the least-loaded cluster whenever the DCOUNT workload-imbalance
//     metric exceeds a threshold.
//   - SSA: the "simple steering algorithm" of Section 4.7 — leftmost
//     operand, lowest cluster index, round-robin for operand-less
//     instructions — with no balance control at all.
//
// The policies are pure deciders: each Choose maps a request to a cluster,
// and the core calls the one its configuration names directly. Ring and
// Conv are set up with the machine's fabric geometry, which they keep as
// reach masks, so one decision path serves every cluster count; Ring also
// reads the register files' free counts. The core performs resource checks
// and stalls dispatch if the chosen cluster cannot accept the instruction,
// exactly as the paper specifies ("if the chosen cluster is full, then the
// dispatch stage is stalled").
package steering

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// Operand describes one renamed source operand at dispatch time.
type Operand struct {
	// Mask has bit c set if the value is, or will become, readable by
	// instructions in cluster c (home cluster plus any communication
	// destinations already dispatched).
	Mask uint32
	// Pending reports whether the value has not been produced yet.
	Pending bool
}

// Request describes the instruction being steered.
type Request struct {
	// Ops holds the renamed register source operands (0 to 2). Operands
	// reading the hardwired zero register are excluded by the core.
	Ops [2]Operand
	// NumOps is how many of Ops are meaningful.
	NumOps int
	// Kind is the namespace used for free-register tie-breaking: the
	// destination's namespace when the instruction writes a register,
	// else the integer namespace.
	Kind isa.RegFileKind
}

// allMask returns a mask with bits 0..n-1 set.
func allMask(n int) uint32 { return uint32(1)<<uint(n) - 1 }

// reach holds one fabric geometry as reach masks: ball[s*n+d] has bit c
// set when a value in cluster s gets to cluster c in at most d hops. The
// two-operand distance rules of Ring and Conv reduce to a few mask
// operations over it, for any cluster count.
type reach struct {
	n    int
	ball []uint32
}

// reset rebuilds g as the reach masks of an n-cluster fabric whose
// pairwise minimum hop distances are given row-major by source
// (minDist[src*n+dst]), reusing g's storage. On a ring every distance is
// below n, so every cluster reaches every other within n-1 hops.
func (g *reach) reset(n int, minDist []int8) {
	if n < 1 || n > 32 {
		panic(fmt.Sprintf("steering: %d clusters", n))
	}
	g.n, g.ball = n, zeroed(g.ball, n*n)
	for s := 0; s < n; s++ {
		for c := 0; c < n; c++ {
			for d := int(minDist[s*n+c]); d < n; d++ {
				g.ball[s*n+d] |= 1 << uint(c)
			}
		}
	}
}

// zeroed returns a zeroed slice of n elements, reusing s's array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// within returns the clusters a value with the given copy mask reaches in
// at most d hops.
func (g *reach) within(mask uint32, d int) uint32 {
	var r uint32
	for m := mask; m != 0; m &= m - 1 {
		r |= g.ball[bits.TrailingZeros32(m)*g.n+d]
	}
	return r
}

// norm maps an unwritten live-in's empty mask to every cluster: such
// values are readable everywhere.
func (g *reach) norm(mask uint32) uint32 {
	if mask == 0 {
		return allMask(g.n)
	}
	return mask
}

// Ring is the dependence-based policy of Section 3.1. It is stateless:
// every decision is a function of the operand masks and the register
// files' occupancy. Reset sets it up; the zero value is not ready.
type Ring struct {
	reach
	files *regfile.Files
	vis   []int8
}

// Reset makes r the ring machine's steering policy for the fabric
// geometry minDist (pairwise minimum hop distances, row-major by source),
// deciding against the register files files. vis[c] is the cluster whose
// register file an instruction steered to c writes, so the free-register
// tie-break reads that file; len(vis) is the cluster count. A machine
// recycled for a new run resets its policy in place, without allocating.
func (r *Ring) Reset(minDist []int8, files *regfile.Files, vis []int8) {
	r.reach.reset(len(vis), minDist)
	r.files, r.vis = files, vis
}

// Name identifies the policy in reports.
func (*Ring) Name() string { return "ring-dependence" }

// mostFree returns the cluster among mask whose written register file has
// the most free registers of the given kind, breaking ties toward lower
// indices. Only set bits are visited (copy masks are usually 1-2 bits
// wide).
func (r *Ring) mostFree(mask uint32, kind isa.RegFileKind) int {
	if mask&(mask-1) == 0 && mask != 0 {
		return bits.TrailingZeros32(mask) // one candidate
	}
	best, bestFree := -1, math.MinInt
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if free := r.files.Free(int(r.vis[c]), kind); free > bestFree {
			best, bestFree = c, free
		}
	}
	return best
}

// Choose implements the algorithm exactly as Section 3.1 states it.
func (r *Ring) Choose(req *Request) int {
	switch req.NumOps {
	case 0:
		// "The cluster with more free registers is chosen."
		return r.mostFree(allMask(r.n), req.Kind)
	case 1:
		// "Those clusters where the register is mapped are selected, and
		// the one with more free registers among them is chosen."
		return r.mostFree(r.norm(req.Ops[0].Mask), req.Kind)
	}
	m0, m1 := r.norm(req.Ops[0].Mask), r.norm(req.Ops[1].Mask)
	if both := m0 & m1; both != 0 {
		// "Those clusters where both registers are mapped are selected,
		// and the one with more free registers among them is chosen."
		return r.mostFree(both, req.Kind)
	}
	// "Those clusters where one operand is mapped are chosen. Since one
	// communication is required, it is chosen the one that incurs in the
	// shorter communication distance. If there is more than one, the one
	// with more free registers among them is chosen." A cluster holding
	// one operand is d hops from the other when the other reaches it in
	// d; the first d that reaches one selects every cluster at it.
	for d := 1; ; d++ {
		if sel := m0&r.within(m1, d) | m1&r.within(m0, d); sel != 0 {
			return r.mostFree(sel, req.Kind)
		}
	}
}

// ConvConfig tunes the conventional policy's imbalance controller.
// Fields are declared in JSON key order, so json.Marshal writes the
// canonical encoding a content key hashes.
type ConvConfig struct {
	// DecayFactor multiplies the counters each decay (0 < f < 1).
	DecayFactor float64
	// DecayPeriod is how often, in cycles, the DCOUNT counters decay.
	DecayPeriod int
	// Threshold is the DCOUNT imbalance (max minus min) above which the
	// policy abandons dependences and picks the least-loaded cluster.
	Threshold float64
}

// DefaultConvConfig returns the tuning used throughout the evaluation.
func DefaultConvConfig() ConvConfig {
	return ConvConfig{Threshold: 24, DecayPeriod: 64, DecayFactor: 0.5}
}

// Conv is the baseline policy of Section 4.1: dependence-based steering
// with DCOUNT workload-imbalance control. The DCOUNT extrema (and the
// least-loaded cluster) are maintained incrementally by OnDispatch and
// Tick — the only mutators — so the per-Choose imbalance test is O(1)
// instead of a counter scan. Reset sets it up; the zero value is not
// ready.
type Conv struct {
	reach
	cfg    ConvConfig
	dcount []float64
	// untilDecay counts the Ticks left before the next decay (1 to
	// DecayPeriod).
	untilDecay int
	mn, mx     float64 // cached min/max over dcount
	minIdx     int     // lowest cluster index achieving mn
}

// Reset makes cv the conventional policy for n clusters over the fabric
// geometry minDist (pairwise minimum hop distances, row-major by source),
// every DCOUNT at zero, reusing cv's storage. Conv breaks ties on DCOUNT,
// not free registers, so it needs no register files.
func (cv *Conv) Reset(n int, cfg ConvConfig, minDist []int8) {
	if cfg.Threshold <= 0 || cfg.DecayPeriod <= 0 || cfg.DecayFactor <= 0 || cfg.DecayFactor >= 1 {
		panic("steering: bad ConvConfig")
	}
	cv.reach.reset(n, minDist)
	cv.cfg, cv.dcount, cv.untilDecay = cfg, zeroed(cv.dcount, n), cfg.DecayPeriod
	cv.mn, cv.mx, cv.minIdx = 0, 0, 0
}

// Name identifies the policy in reports.
func (*Conv) Name() string { return "conv-dcount" }

// DCount returns the current DCOUNT value for cluster c (for tests and
// introspection).
func (cv *Conv) DCount(c int) float64 { return cv.dcount[c] }

// Imbalance returns max(DCOUNT) - min(DCOUNT).
func (cv *Conv) Imbalance() float64 { return cv.mx - cv.mn }

// rescan recomputes the cached extrema from the counters.
func (cv *Conv) rescan() {
	cv.mn, cv.mx, cv.minIdx = cv.dcount[0], cv.dcount[0], 0
	for i, d := range cv.dcount[1:] {
		if d < cv.mn {
			cv.mn, cv.minIdx = d, i+1
		}
		if d > cv.mx {
			cv.mx = d
		}
	}
}

// leastLoaded returns the cluster with the lowest DCOUNT among mask.
func (cv *Conv) leastLoaded(mask uint32) int {
	dc := cv.dcount
	all := allMask(len(dc))
	switch mask &= all; {
	case mask == all:
		return cv.minIdx // the lowest index holding the minimum
	case mask&(mask-1) == 0 && mask != 0:
		return bits.TrailingZeros32(mask) // one candidate
	}
	best := -1
	bestD := math.Inf(1)
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if dc[c] < bestD {
			best, bestD = c, dc[c]
		}
	}
	return best
}

// Choose implements the Section 4.1 algorithm.
func (cv *Conv) Choose(req *Request) int {
	// "If the workload imbalance is higher than the threshold: the least
	// loaded cluster is chosen (that with lower DCOUNT value)."
	if cv.Imbalance() > cv.cfg.Threshold {
		return cv.minIdx
	}
	pending := uint32(0)
	for i := 0; i < req.NumOps; i++ {
		if req.Ops[i].Pending && req.Ops[i].Mask != 0 {
			pending |= req.Ops[i].Mask
		}
	}
	var selected uint32
	switch {
	case pending != 0:
		// "Cluster(s) where the pending operand(s) are to be produced
		// are selected."
		selected = pending
	case req.NumOps == 0:
		// "If it has no source operands: all clusters are selected."
		selected = allMask(cv.n)
	case req.NumOps == 1:
		// "Cluster(s) that minimize the longest communication distance
		// are selected": with one operand, those already holding it.
		selected = cv.norm(req.Ops[0].Mask)
	default:
		// With two, the clusters holding both when any do, else those
		// both operands reach within the fewest hops.
		m0, m1 := cv.norm(req.Ops[0].Mask), cv.norm(req.Ops[1].Mask)
		selected = m0 & m1
		for d := 1; selected == 0; d++ {
			selected = cv.within(m0, d) & cv.within(m1, d)
		}
	}
	// "The least loaded cluster among the selected clusters is chosen."
	return cv.leastLoaded(selected)
}

// OnDispatch updates DCOUNT after an instruction dispatched to cluster c:
// that cluster gains n-1 and every other cluster loses 1, keeping the
// counter sum at zero. Each counter sees exactly one float operation, as
// it always has; only the loop no longer branches per element.
//
// The extrema follow without a full rescan unless c held the minimum.
// Subtracting one rounds monotonically, so the other counters keep their
// order, except that two of them may round to the same value: the new
// maximum is the larger of c's counter and the old maximum minus one, and
// the new minimum is the old minimum minus one, first reached at the old
// minimum's index or at an earlier one that rounded onto it. Every value
// involved is computed by the same operation on the same operands as the
// counter it stands for, so the extrema are bit-identical to a rescan's.
func (cv *Conv) OnDispatch(c int) {
	dc := cv.dcount
	gained := dc[c] + float64(len(dc)-1)
	for i := range dc {
		dc[i]--
	}
	dc[c] = gained
	if c == cv.minIdx {
		cv.rescan()
		return
	}
	mn := cv.mn - 1
	if gained <= mn {
		// Only at magnitudes where adding n-1 and subtracting 1 round
		// alike; a rescan settles the tie.
		cv.rescan()
		return
	}
	cv.mx = max(gained, cv.mx-1)
	minIdx := cv.minIdx
	for i := range dc[:minIdx] {
		if dc[i] == mn {
			minIdx = i
			break
		}
	}
	cv.mn, cv.minIdx = dc[minIdx], minIdx
}

// Tick decays the counters every DecayPeriod cycles so that ancient
// history does not dominate the imbalance estimate.
func (cv *Conv) Tick() {
	if cv.untilDecay--; cv.untilDecay == 0 {
		cv.decay()
	}
}

// decay applies one DecayPeriod boundary. It stays out of line: inlined,
// it pushed Tick, which runs every simulated cycle, past the inlining
// budget, and the boundary it handles comes once per DecayPeriod cycles.
//
//go:noinline
func (cv *Conv) decay() {
	cv.untilDecay = cv.cfg.DecayPeriod
	for i := range cv.dcount {
		cv.dcount[i] *= cv.cfg.DecayFactor
	}
	cv.rescan()
}

// TickN advances n cycles at once, bit-identical to n sequential Ticks:
// between decay boundaries only the tick counter moves, and each boundary
// applies exactly one multiplication per counter, so replaying the
// boundaries reproduces the float sequence exactly.
func (cv *Conv) TickN(n uint64) {
	decayed := false
	for n > 0 {
		step := uint64(cv.untilDecay)
		if step > n {
			cv.untilDecay -= int(n)
			break
		}
		n -= step
		cv.untilDecay = cv.cfg.DecayPeriod
		for i := range cv.dcount {
			cv.dcount[i] *= cv.cfg.DecayFactor
		}
		decayed = true
	}
	if decayed {
		cv.rescan()
	}
}

// CyclesToDecay returns how many future Ticks may elapse before the next
// DCOUNT decay fires (always ≥ 1): the Tick that many cycles ahead is the
// first whose decay changes subsequent Choose decisions. The core's
// fast-forward uses it to bound skips over Choose-dependent stalls.
func (cv *Conv) CyclesToDecay() uint64 { return uint64(cv.untilDecay) }

// SSA is the simple steering algorithm of Section 4.7: an instruction goes
// to the lowest-index cluster that stores (or will store) its leftmost
// operand; instructions without register operands round-robin. Reset
// sets it up; the zero value is not ready.
type SSA struct {
	n    int
	next int
}

// Reset makes s the simple policy for n clusters, its round-robin at
// cluster 0.
func (s *SSA) Reset(n int) {
	if n < 1 {
		panic(fmt.Sprintf("steering: %d clusters", n))
	}
	*s = SSA{n: n}
}

// Name identifies the policy in reports.
func (*SSA) Name() string { return "simple" }

// Choose implements the Section 4.7 algorithm.
func (s *SSA) Choose(req *Request) int {
	if req.NumOps > 0 {
		mask := req.Ops[0].Mask
		if mask == 0 {
			mask = allMask(s.n)
		}
		for c := 0; c < s.n; c++ {
			if mask&(1<<uint(c)) != 0 {
				return c
			}
		}
	}
	// Round-robin. Advancing here (rather than OnDispatch) keeps the
	// paper's behaviour of cycling per steering decision; a stalled
	// instruction re-chooses next cycle and may land elsewhere, which is
	// what a rename-stage round-robin would do.
	c := s.next
	s.next++
	if s.next >= s.n {
		s.next = 0
	}
	return c
}
