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
// The policies are pure deciders: each Choose sees the machine through the
// View interface and returns a cluster, and the core calls the one its
// configuration names directly. The core performs resource checks and
// stalls dispatch if the chosen cluster cannot accept the instruction,
// exactly as the paper specifies ("if the chosen cluster is full, then the
// dispatch stage is stalled"). Machines of up to eight clusters prime Ring
// and Conv with geometry tables, which answer the same decisions without
// consulting the View.
package steering

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// View is the machine state a steering algorithm may consult.
type View interface {
	// NumClusters returns the number of clusters.
	NumClusters() int
	// FreeRegs returns the free physical registers of the given namespace
	// in cluster c.
	FreeRegs(c int, kind isa.RegFileKind) int
	// CommDistance returns the minimum hop count to move a value from
	// cluster src to cluster dst over the machine's buses.
	CommDistance(src, dst int) int
}

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

// mostFree returns the cluster with the most free registers of the given
// kind among those selected by mask, breaking ties toward lower indices.
// Only set bits are visited (copy masks are usually 1-2 bits wide).
func mostFree(v View, mask uint32, kind isa.RegFileKind) int {
	best, bestFree := -1, math.MinInt
	for m := mask & allMask(v.NumClusters()); m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if f := v.FreeRegs(c, kind); f > bestFree {
			best, bestFree = c, f
		}
	}
	return best
}

// minDistTo returns the minimum hop count needed to bring a value with the
// given copy mask to cluster dst (0 when already mapped there).
func minDistTo(v View, mask uint32, dst int) int {
	if mask&(1<<uint(dst)) != 0 {
		return 0
	}
	best := math.MaxInt
	for m := mask & allMask(v.NumClusters()); m != 0; m &= m - 1 {
		s := bits.TrailingZeros32(m)
		if d := v.CommDistance(s, dst); d < best {
			best = d
		}
	}
	return best
}

// pairRule selects which two-operand rule a pair table tabulates.
type pairRule uint8

const (
	ringRule pairRule = iota // Ring: candidates hold one operand; minimize the other's distance
	convRule                 // Conv: any cluster; minimize the longest distance
)

// tables holds the two-operand candidate set of one policy's distance
// rule for one fabric geometry: a pure function of the two (normalized)
// operand masks, looked up instead of evaluated in the steering inner
// loop. They are built once per distinct (geometry, rule) and cached
// process-wide; a policy builds only the table it reads.
type tables struct {
	n    int
	pair []uint16 // [m0<<n | m1]: selected clusters when no cluster holds both operands
}

// maxTableClusters bounds the cluster count for which mask-indexed tables
// are built; beyond it the pair tables would be too large and the policies
// keep their View-driven paths.
const maxTableClusters = 8

var (
	tablesMu    sync.Mutex
	tablesCache = map[string]*tables{}
)

// primeTables returns rule's table for an n-cluster fabric whose pairwise
// minimum hop distances are given row-major by source (minDist[src*n+dst]),
// building and caching it on first use. It returns nil when n exceeds the
// supported table size.
func primeTables(n int, minDist []int8, rule pairRule) *tables {
	if n < 1 || n > maxTableClusters || len(minDist) < n*n {
		return nil
	}
	key := make([]byte, 0, n*n+2)
	key = append(key, byte(rule), byte(n))
	for _, d := range minDist[:n*n] {
		key = append(key, byte(d))
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if t, ok := tablesCache[string(key)]; ok {
		return t
	}
	t := buildTables(n, minDist, rule)
	tablesCache[string(key)] = t
	return t
}

// buildTables materializes rule's pair table by evaluating the exact
// slow-path rule for every mask combination.
func buildTables(n int, minDist []int8, rule pairRule) *tables {
	masks := 1 << uint(n)
	md := func(mask uint32, dst int) int {
		if mask&(1<<uint(dst)) != 0 {
			return 0
		}
		best := math.MaxInt8
		for m := mask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros32(m)
			if d := int(minDist[s*n+dst]); d < best {
				best = d
			}
		}
		return best
	}
	// maskDist[mask*n+dst]: min hops to bring a value with that copy mask
	// to dst.
	maskDist := make([]int8, masks*n)
	for mask := 1; mask < masks; mask++ {
		for dst := 0; dst < n; dst++ {
			maskDist[mask*n+dst] = int8(md(uint32(mask), dst))
		}
	}
	t := &tables{n: n, pair: make([]uint16, masks*masks)}
	for m0 := 1; m0 < masks; m0++ {
		for m1 := 1; m1 < masks; m1++ {
			best := math.MaxInt
			var sel uint32
			for c := 0; c < n; c++ {
				var cost int
				if rule == ringRule {
					// Candidates hold one operand; the cost is the
					// communication distance of the other.
					if uint32(m0|m1)&(1<<uint(c)) == 0 {
						continue
					}
					other := m0
					if m0&(1<<uint(c)) != 0 {
						other = m1
					}
					cost = int(maskDist[other*n+c])
				} else {
					// Any cluster; the cost is the longer of both
					// operands' communication distances.
					cost = max(int(maskDist[m0*n+c]), int(maskDist[m1*n+c]))
				}
				switch {
				case cost < best:
					best = cost
					sel = 1 << uint(c)
				case cost == best:
					sel |= 1 << uint(c)
				}
			}
			t.pair[m0<<uint(n)|m1] = uint16(sel)
		}
	}
	return t
}

// mostFreeFiles is mostFree against a concrete register file: identical
// tie-breaking (lowest index wins among equals) without the per-cluster
// interface calls. vis maps the steered cluster to the written file,
// mirroring the View.FreeRegs the slow path consults.
func mostFreeFiles(f *regfile.Files, vis []int8, mask uint32, kind isa.RegFileKind) int {
	if mask&(mask-1) == 0 && mask != 0 {
		return bits.TrailingZeros32(mask) // one candidate
	}
	best, bestFree := -1, math.MinInt
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if free := f.Free(int(vis[c]), kind); free > bestFree {
			best, bestFree = c, free
		}
	}
	return best
}

// Ring is the dependence-based policy of Section 3.1. It is stateless:
// every decision is a function of the operand masks and the register
// files' occupancy.
type Ring struct {
	tab   *tables
	files *regfile.Files
	vis   []int8
}

// NewRing returns the ring machine's steering policy.
func NewRing() *Ring { return &Ring{} }

// Name identifies the policy in reports.
func (*Ring) Name() string { return "ring-dependence" }

// PrimeGeometry gives the policy the machine's fabric geometry (pairwise
// minimum hop distances, row-major by source), its register files, and the
// cluster-visibility mapping its View.FreeRegs applies (vis[c] is the
// cluster whose register file an instruction steered to c writes). On up
// to eight clusters Choose then decides from a pair table and the files
// directly, without consulting the View; beyond that the View path stays.
func (r *Ring) PrimeGeometry(minDist []int8, files *regfile.Files, vis []int8) {
	r.tab, r.files, r.vis = primeTables(len(vis), minDist, ringRule), files, vis
}

// Choose implements the algorithm exactly as Section 3.1 states it.
func (r *Ring) Choose(v View, req *Request) int {
	if r.tab != nil {
		// Table path: identical decisions, no interface calls. The 2-op
		// candidate set is a pure function of the two operand masks and
		// comes straight from the geometry table.
		t, f, vis := r.tab, r.files, r.vis
		all := allMask(t.n)
		switch req.NumOps {
		case 0:
			return mostFreeFiles(f, vis, all, req.Kind)
		case 1:
			m0 := req.Ops[0].Mask
			if m0 == 0 {
				m0 = all
			}
			return mostFreeFiles(f, vis, m0, req.Kind)
		default:
			m0, m1 := req.Ops[0].Mask, req.Ops[1].Mask
			if m0 == 0 {
				m0 = all
			}
			if m1 == 0 {
				m1 = all
			}
			if both := m0 & m1; both != 0 {
				return mostFreeFiles(f, vis, both, req.Kind)
			}
			return mostFreeFiles(f, vis, uint32(t.pair[int(m0)<<uint(t.n)|int(m1)]), req.Kind)
		}
	}
	n := v.NumClusters()
	all := allMask(n)
	norm := func(m uint32) uint32 {
		if m == 0 {
			return all // unwritten live-ins are readable everywhere
		}
		return m
	}
	switch req.NumOps {
	case 0:
		// "The cluster with more free registers is chosen."
		return mostFree(v, all, req.Kind)
	case 1:
		// "Those clusters where the register is mapped are selected, and
		// the one with more free registers among them is chosen."
		return mostFree(v, norm(req.Ops[0].Mask), req.Kind)
	default:
		m0, m1 := norm(req.Ops[0].Mask), norm(req.Ops[1].Mask)
		if both := m0 & m1; both != 0 {
			// "Those clusters where both registers are mapped are
			// selected, and the one with more free registers among them
			// is chosen."
			return mostFree(v, both, req.Kind)
		}
		// "Those clusters where one operand is mapped are chosen. Since
		// one communication is required, it is chosen the one that incurs
		// in the shorter communication distance. If there is more than
		// one, the one with more free registers among them is chosen."
		candidates := m0 | m1
		bestDist := math.MaxInt
		var bestMask uint32
		for c := 0; c < n; c++ {
			if candidates&(1<<uint(c)) == 0 {
				continue
			}
			// The operand not mapped in c must be communicated.
			var other uint32
			if m0&(1<<uint(c)) != 0 {
				other = m1
			} else {
				other = m0
			}
			d := minDistTo(v, other, c)
			switch {
			case d < bestDist:
				bestDist = d
				bestMask = 1 << uint(c)
			case d == bestDist:
				bestMask |= 1 << uint(c)
			}
		}
		return mostFree(v, bestMask, req.Kind)
	}
}

// ConvConfig tunes the conventional policy's imbalance controller.
type ConvConfig struct {
	// Threshold is the DCOUNT imbalance (max minus min) above which the
	// policy abandons dependences and picks the least-loaded cluster.
	Threshold float64
	// DecayPeriod is how often, in cycles, the DCOUNT counters decay.
	DecayPeriod int
	// DecayFactor multiplies the counters each decay (0 < f < 1).
	DecayFactor float64
}

// DefaultConvConfig returns the tuning used throughout the evaluation.
func DefaultConvConfig() ConvConfig {
	return ConvConfig{Threshold: 24, DecayPeriod: 64, DecayFactor: 0.5}
}

// Conv is the baseline policy of Section 4.1: dependence-based steering
// with DCOUNT workload-imbalance control. The DCOUNT extrema (and the
// least-loaded cluster) are maintained incrementally by OnDispatch and
// Tick — the only mutators — so the per-Choose imbalance test is O(1)
// instead of a counter scan.
type Conv struct {
	cfg    ConvConfig
	dcount []float64
	// untilDecay counts the Ticks left before the next decay (1 to
	// DecayPeriod).
	untilDecay int
	mn, mx     float64 // cached min/max over dcount
	minIdx     int     // lowest cluster index achieving mn
	tab        *tables
}

// PrimeGeometry gives the policy the machine's fabric geometry (pairwise
// minimum hop distances over n clusters, row-major by source). On up to
// eight clusters Choose then decides from a pair table without consulting
// the View. Conv breaks ties on DCOUNT, not free registers, so it needs no
// register files.
func (cv *Conv) PrimeGeometry(n int, minDist []int8) {
	cv.tab = primeTables(n, minDist, convRule)
}

// NewConv returns the conventional policy for n clusters.
func NewConv(n int, cfg ConvConfig) *Conv {
	if n < 1 {
		panic(fmt.Sprintf("steering: %d clusters", n))
	}
	if cfg.Threshold <= 0 || cfg.DecayPeriod <= 0 || cfg.DecayFactor <= 0 || cfg.DecayFactor >= 1 {
		panic("steering: bad ConvConfig")
	}
	return &Conv{cfg: cfg, dcount: make([]float64, n), untilDecay: cfg.DecayPeriod}
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
func (cv *Conv) Choose(v View, req *Request) int {
	// "If the workload imbalance is higher than the threshold: the least
	// loaded cluster is chosen (that with lower DCOUNT value)."
	if cv.Imbalance() > cv.cfg.Threshold {
		return cv.minIdx
	}
	if t := cv.tab; t != nil {
		// Table path: identical decisions without the per-cluster distance
		// scans. With no pending operand the selected set reduces to the
		// clusters at distance zero when one exists — the (normalized)
		// operand mask itself, or the masks' intersection — and to the
		// precomputed pair table otherwise.
		all := allMask(t.n)
		pending := uint32(0)
		for i := 0; i < req.NumOps; i++ {
			if req.Ops[i].Pending && req.Ops[i].Mask != 0 {
				pending |= req.Ops[i].Mask
			}
		}
		var selected uint32
		switch {
		case pending != 0:
			selected = pending
		case req.NumOps == 0:
			selected = all
		case req.NumOps == 1:
			selected = req.Ops[0].Mask
			if selected == 0 {
				selected = all
			}
		default:
			m0, m1 := req.Ops[0].Mask, req.Ops[1].Mask
			if m0 == 0 {
				m0 = all
			}
			if m1 == 0 {
				m1 = all
			}
			if both := m0 & m1; both != 0 {
				selected = both
			} else {
				selected = uint32(t.pair[int(m0)<<uint(t.n)|int(m1)])
			}
		}
		return cv.leastLoaded(selected)
	}
	n := v.NumClusters()
	all := allMask(n)
	var selected uint32
	pending := uint32(0)
	for i := 0; i < req.NumOps; i++ {
		if req.Ops[i].Pending && req.Ops[i].Mask != 0 {
			pending |= req.Ops[i].Mask
		}
	}
	switch {
	case pending != 0:
		// "Cluster(s) where the pending operand(s) are to be produced
		// are selected."
		selected = pending
	case req.NumOps > 0:
		// "Cluster(s) that minimize the longest communication distance
		// are selected."
		bestCost := math.MaxInt
		for c := 0; c < n; c++ {
			cost := 0
			for i := 0; i < req.NumOps; i++ {
				m := req.Ops[i].Mask
				if m == 0 {
					m = all
				}
				if d := minDistTo(v, m, c); d > cost {
					cost = d
				}
			}
			switch {
			case cost < bestCost:
				bestCost = cost
				selected = 1 << uint(c)
			case cost == bestCost:
				selected |= 1 << uint(c)
			}
		}
	default:
		// "If it has no source operands: all clusters are selected."
		selected = all
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
// operand; instructions without register operands round-robin.
type SSA struct {
	n    int
	next int
}

// NewSSA returns the simple policy for n clusters.
func NewSSA(n int) *SSA {
	if n < 1 {
		panic(fmt.Sprintf("steering: %d clusters", n))
	}
	return &SSA{n: n}
}

// Name identifies the policy in reports.
func (*SSA) Name() string { return "simple" }

// Choose implements the Section 4.7 algorithm.
func (s *SSA) Choose(v View, req *Request) int {
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
