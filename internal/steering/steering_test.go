package steering

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// ringDist returns the hop distances of an n-cluster ring, row-major by
// source: one-way, or with bidir the shorter of the two directions.
func ringDist(n int, bidir bool) []int8 {
	d := make([]int8, n*n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			fwd := (t - s + n) % n
			if bidir && n-fwd < fwd {
				fwd = n - fwd
			}
			d[s*n+t] = int8(fwd)
		}
	}
	return d
}

// machine is the state a policy steers against: n clusters on a ring,
// real register files and a visibility mapping (vis[c] is the file an
// instruction steered to c writes). newMachine leaves 10 free registers in
// every file and identity visibility, so a case sets free counts per
// steered cluster.
type machine struct {
	n       int
	minDist []int8
	files   *regfile.Files
	vis     []int8
}

func newMachine(n int, bidir bool) *machine {
	m := &machine{n: n, minDist: ringDist(n, bidir), files: regfile.New(n, 128, 128), vis: make([]int8, n)}
	for c := range m.vis {
		m.vis[c] = int8(c)
		m.setFree(c, isa.IntReg, 10)
		m.setFree(c, isa.FPReg, 10)
	}
	return m
}

// setFree leaves f registers of the namespace free in cluster c's file.
func (m *machine) setFree(c int, kind isa.RegFileKind, f int) {
	for m.files.Free(c, kind) > f {
		m.files.Alloc(c, kind)
	}
	for m.files.Free(c, kind) < f {
		m.files.Release(c, kind)
	}
}

func (m *machine) ring() *Ring {
	r := new(Ring)
	r.Reset(m.minDist, m.files, m.vis)
	return r
}

func (m *machine) conv(cfg ConvConfig) *Conv {
	cv := new(Conv)
	cv.Reset(m.n, cfg, m.minDist)
	return cv
}

func newSSA(n int) *SSA {
	s := new(SSA)
	s.Reset(n)
	return s
}

// The literal rules: the paper's steering rules stated as per-cluster
// scans of free registers, hop distances and DCOUNT, the oracle the
// policies are checked against.

// ruleMostFree returns the cluster among mask with the most free
// registers in the file it writes, breaking ties toward lower indices.
func (m *machine) ruleMostFree(mask uint32, kind isa.RegFileKind) int {
	best, bestFree := -1, math.MinInt
	for c := 0; c < m.n; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		if f := m.files.Free(int(m.vis[c]), kind); f > bestFree {
			best, bestFree = c, f
		}
	}
	return best
}

// ruleDistTo returns the minimum hop count needed to bring a value with
// the given copy mask to cluster dst (0 when already mapped there).
func (m *machine) ruleDistTo(mask uint32, dst int) int {
	if mask&(1<<uint(dst)) != 0 {
		return 0
	}
	best := math.MaxInt
	for s := 0; s < m.n; s++ {
		if mask&(1<<uint(s)) != 0 {
			best = min(best, int(m.minDist[s*m.n+dst]))
		}
	}
	return best
}

// ruleRing is Section 3.1's rule.
func (m *machine) ruleRing(req *Request) int {
	all := allMask(m.n)
	norm := func(mask uint32) uint32 {
		if mask == 0 {
			return all // unwritten live-ins are readable everywhere
		}
		return mask
	}
	switch req.NumOps {
	case 0:
		return m.ruleMostFree(all, req.Kind)
	case 1:
		return m.ruleMostFree(norm(req.Ops[0].Mask), req.Kind)
	}
	m0, m1 := norm(req.Ops[0].Mask), norm(req.Ops[1].Mask)
	if both := m0 & m1; both != 0 {
		return m.ruleMostFree(both, req.Kind)
	}
	// Candidates hold one operand; the cost is the other's distance.
	bestDist := math.MaxInt
	var bestMask uint32
	for c := 0; c < m.n; c++ {
		if (m0|m1)&(1<<uint(c)) == 0 {
			continue
		}
		other := m0
		if m0&(1<<uint(c)) != 0 {
			other = m1
		}
		switch d := m.ruleDistTo(other, c); {
		case d < bestDist:
			bestDist, bestMask = d, 1<<uint(c)
		case d == bestDist:
			bestMask |= 1 << uint(c)
		}
	}
	return m.ruleMostFree(bestMask, req.Kind)
}

// ruleConv is Section 4.1's rule over the counters dcount.
func (m *machine) ruleConv(dcount []float64, threshold float64, req *Request) int {
	// leastLoaded scans for the lowest counter, lowest index first.
	leastLoaded := func(mask uint32) int {
		best := -1
		for c := 0; c < m.n; c++ {
			if mask&(1<<uint(c)) != 0 && (best < 0 || dcount[c] < dcount[best]) {
				best = c
			}
		}
		return best
	}
	all := allMask(m.n)
	mn, mx := dcount[0], dcount[0]
	for _, d := range dcount {
		mn, mx = min(mn, d), max(mx, d)
	}
	if mx-mn > threshold {
		return leastLoaded(all)
	}
	pending := uint32(0)
	for i := 0; i < req.NumOps; i++ {
		if req.Ops[i].Pending && req.Ops[i].Mask != 0 {
			pending |= req.Ops[i].Mask
		}
	}
	if pending != 0 {
		return leastLoaded(pending)
	}
	if req.NumOps == 0 {
		return leastLoaded(all)
	}
	// Any cluster; the cost is the longer of the operands' distances.
	bestCost := math.MaxInt
	var selected uint32
	for c := 0; c < m.n; c++ {
		cost := 0
		for i := 0; i < req.NumOps; i++ {
			mask := req.Ops[i].Mask
			if mask == 0 {
				mask = all
			}
			cost = max(cost, m.ruleDistTo(mask, c))
		}
		switch {
		case cost < bestCost:
			bestCost, selected = cost, 1<<uint(c)
		case cost == bestCost:
			selected |= 1 << uint(c)
		}
	}
	return leastLoaded(selected)
}

// checkChoose fails the test unless Ring and Conv decide req as the
// literal rules do.
func checkChoose(t *testing.T, m *machine, ring *Ring, cv *Conv, req *Request, bidir bool) {
	t.Helper()
	if got, want := ring.Choose(req), m.ruleRing(req); got != want {
		t.Fatalf("n=%d bidir=%v vis=%v %+v: Ring chose %d, the rule %d", m.n, bidir, m.vis, *req, got, want)
	}
	if got, want := cv.Choose(req), m.ruleConv(cv.dcount, cv.cfg.Threshold, req); got != want {
		t.Fatalf("n=%d bidir=%v %+v dcount=%v: Conv chose %d, the rule %d", m.n, bidir, *req, cv.dcount, got, want)
	}
}

func op(mask uint32) Operand { return Operand{Mask: mask} }

func TestRingZeroSourceGoesToMostFree(t *testing.T) {
	m := newMachine(4, false)
	m.setFree(2, isa.IntReg, 20)
	req := &Request{Kind: isa.IntReg}
	if got := m.ring().Choose(req); got != 2 {
		t.Fatalf("0-src chose %d, want 2 (most free)", got)
	}
}

func TestRingOneSourceFollowsMapping(t *testing.T) {
	m := newMachine(4, false)
	m.setFree(3, isa.IntReg, 100) // tempting but not mapped
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 1)
	if got := m.ring().Choose(req); got != 1 {
		t.Fatalf("1-src chose %d, want 1 (only mapped cluster)", got)
	}
}

func TestRingOneSourceTieBreaksByFreeRegs(t *testing.T) {
	m := newMachine(4, false)
	m.setFree(1, isa.IntReg, 5)
	m.setFree(2, isa.IntReg, 9)
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1<<1 | 1<<2)
	if got := m.ring().Choose(req); got != 2 {
		t.Fatalf("chose %d, want 2 (more free registers)", got)
	}
}

func TestRingTwoSourcesPreferCommonCluster(t *testing.T) {
	m := newMachine(4, false)
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1<<0 | 1<<2)
	req.Ops[1] = op(1<<2 | 1<<3)
	if got := m.ring().Choose(req); got != 2 {
		t.Fatalf("chose %d, want 2 (both operands mapped)", got)
	}
}

func TestRingTwoSourcesMinimizeCommDistance(t *testing.T) {
	// Operand A mapped at 1, operand B at 2: candidates are 1 and 2.
	// Steering to 2 needs A moved 1->2 (1 hop); steering to 1 needs B
	// moved 2->1 (3 hops on a 4-ring). Cluster 2 must win.
	m := newMachine(4, false)
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 1)
	req.Ops[1] = op(1 << 2)
	if got := m.ring().Choose(req); got != 2 {
		t.Fatalf("chose %d, want 2 (shorter communication)", got)
	}
}

func TestRingNeverNeedsTwoComms(t *testing.T) {
	// Property from Section 3.1: a 2-source instruction always lands on
	// a cluster where at least one operand is mapped.
	r := newMachine(8, false).ring()
	for m0 := uint32(1); m0 < 1<<8; m0 <<= 1 {
		for m1 := uint32(1); m1 < 1<<8; m1 <<= 1 {
			req := &Request{NumOps: 2, Kind: isa.IntReg}
			req.Ops[0] = op(m0)
			req.Ops[1] = op(m1)
			c := r.Choose(req)
			if (m0|m1)&(1<<uint(c)) == 0 {
				t.Fatalf("masks %b,%b chose unmapped cluster %d", m0, m1, c)
			}
		}
	}
}

// TestRingFigure2Walkthrough replays the paper's worked example with the
// ring-machine mapping semantics (a value produced in cluster c becomes
// readable in c+1). Figure 2 steers I1 to 0 (we pin the tie-break), I2 to
// 1, I3 to 2, I4 to 3, and I5 to the freest of {1,2,3}.
func TestRingFigure2Walkthrough(t *testing.T) {
	m := newMachine(4, false)
	r := m.ring()

	// I1: R1 = 1 (no sources). Paper sends it "randomly" to 0; the
	// deterministic tie-break picks the most-free, lowest-index cluster.
	m.setFree(0, isa.IntReg, 99)
	req := &Request{Kind: isa.IntReg}
	if got := r.Choose(req); got != 0 {
		t.Fatalf("I1 to %d, want 0", got)
	}
	r1 := op(1 << 1) // produced in 0 => readable in 1

	// I2: R2 = R1 + 1. R1 is mapped (will be) in cluster 1.
	req = &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = r1
	if got := r.Choose(req); got != 1 {
		t.Fatalf("I2 to %d, want 1", got)
	}
	r2 := op(1 << 2)

	// I3: R3 = R1 + R2. R1 at {1}, R2 at {2}: no common cluster;
	// steering to 2 moves R1 one hop — the paper's choice.
	req = &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = r1
	req.Ops[1] = r2
	if got := r.Choose(req); got != 2 {
		t.Fatalf("I3 to %d, want 2", got)
	}
	r1after := op(1<<1 | 1<<2) // copy of R1 now also at 2
	r3 := op(1 << 3)

	// I4: R4 = R1 + R3. R1 at {1,2}, R3 at {3}: cluster 3 needs R1 from
	// 2 (1 hop) — the paper steers I4 to 3.
	req = &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = r1after
	req.Ops[1] = r3
	if got := r.Choose(req); got != 3 {
		t.Fatalf("I4 to %d, want 3", got)
	}

	// I5: R5 = R1 x 3. R1 mapped at {1,2,3}; the paper picks cluster 3
	// because it has the most free registers.
	m.setFree(0, isa.IntReg, 10)
	m.setFree(3, isa.IntReg, 50)
	req = &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1<<1 | 1<<2 | 1<<3)
	if got := r.Choose(req); got != 3 {
		t.Fatalf("I5 to %d, want 3", got)
	}
}

func TestConvImbalanceOverride(t *testing.T) {
	cv := newMachine(4, true).conv(ConvConfig{Threshold: 10, DecayPeriod: 64, DecayFactor: 0.5})
	// Pump dispatches into cluster 0 until imbalance exceeds threshold.
	for i := 0; i < 4; i++ {
		cv.OnDispatch(0)
	}
	if cv.Imbalance() <= 10 {
		t.Fatalf("imbalance %v not above threshold", cv.Imbalance())
	}
	// Operand mapped at 0 would normally attract the instruction, but
	// the override must pick the least-loaded cluster instead.
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 0)
	if got := cv.Choose(req); got == 0 {
		t.Fatal("override did not leave the overloaded cluster")
	}
}

func TestConvPendingOperandFollowsProducer(t *testing.T) {
	cv := newMachine(4, true).conv(DefaultConvConfig())
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = Operand{Mask: 1 << 2, Pending: true}
	req.Ops[1] = op(1 << 0) // available elsewhere
	if got := cv.Choose(req); got != 2 {
		t.Fatalf("chose %d, want 2 (pending producer)", got)
	}
}

func TestConvAvailableOperandsMinimizeLongestDistance(t *testing.T) {
	cv := newMachine(8, true).conv(DefaultConvConfig())
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 0)
	req.Ops[1] = op(1 << 2)
	// Candidates minimizing max distance: cluster 1 (1,1); clusters 0
	// and 2 have max distance 2. Expect 1.
	if got := cv.Choose(req); got != 1 {
		t.Fatalf("chose %d, want 1", got)
	}
}

func TestConvNoSourcesPicksLeastLoaded(t *testing.T) {
	cv := newMachine(4, true).conv(DefaultConvConfig())
	cv.OnDispatch(0)
	cv.OnDispatch(1)
	cv.OnDispatch(2)
	req := &Request{Kind: isa.IntReg}
	if got := cv.Choose(req); got != 3 {
		t.Fatalf("chose %d, want 3 (least loaded)", got)
	}
}

func TestConvDCountSumZero(t *testing.T) {
	cv := newMachine(4, true).conv(DefaultConvConfig())
	for i := 0; i < 17; i++ {
		cv.OnDispatch(i % 3)
	}
	var sum float64
	for c := 0; c < 4; c++ {
		sum += cv.DCount(c)
	}
	if sum > 1e-9 || sum < -1e-9 {
		t.Fatalf("DCOUNT sum %v, want 0", sum)
	}
}

func TestConvDecay(t *testing.T) {
	cv := newMachine(2, true).conv(ConvConfig{Threshold: 24, DecayPeriod: 4, DecayFactor: 0.5})
	cv.OnDispatch(0) // dcount[0]=1, dcount[1]=-1
	for i := 0; i < 4; i++ {
		cv.Tick()
	}
	if got := cv.DCount(0); got != 0.5 {
		t.Fatalf("after decay, dcount[0] = %v, want 0.5", got)
	}
}

func TestConvBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad ConvConfig accepted")
		}
	}()
	newMachine(4, true).conv(ConvConfig{Threshold: 0, DecayPeriod: 64, DecayFactor: 0.5})
}

func TestSSALeftmostLowestIndex(t *testing.T) {
	s := newSSA(8)
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1<<5 | 1<<2)
	req.Ops[1] = op(1 << 0) // ignored: only the leftmost counts
	if got := s.Choose(req); got != 2 {
		t.Fatalf("chose %d, want 2 (lowest index of leftmost operand)", got)
	}
}

func TestSSARoundRobinWithoutOperands(t *testing.T) {
	s := newSSA(4)
	req := &Request{Kind: isa.IntReg}
	seen := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		seen = append(seen, s.Choose(req))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("round robin sequence %v", seen)
		}
	}
}

func TestSSAEmptyMaskFallsBackToAll(t *testing.T) {
	s := newSSA(4)
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(0)
	if got := s.Choose(req); got != 0 {
		t.Fatalf("chose %d, want 0", got)
	}
}

func TestAlgorithmNames(t *testing.T) {
	m := newMachine(2, false)
	if m.ring().Name() == "" || newSSA(2).Name() == "" || m.conv(DefaultConvConfig()).Name() == "" {
		t.Fatal("algorithm without a name")
	}
}

// TestConvExtremaMatchRescan: the extrema OnDispatch maintains without a
// rescan are bit-identical to rescanning the counters, on random dispatch
// and decay sequences that include long dispatch-free stretches, where the
// counters decay towards zero and subtracting one rounds distinct counters
// onto the same value.
func TestConvExtremaMatchRescan(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.IntN(15)
		cv := newMachine(n, true).conv(ConvConfig{Threshold: 24, DecayPeriod: 1 + r.IntN(64), DecayFactor: []float64{0.5, 0.75, 0.3}[r.IntN(3)]})
		for step := 0; step < 2000; step++ {
			switch k := r.IntN(10); {
			case k < 6:
				cv.OnDispatch(r.IntN(n))
			case k < 9:
				cv.Tick()
			default:
				cv.TickN(uint64(r.IntN(4000)))
			}
			want := &Conv{dcount: cv.dcount}
			want.rescan()
			if math.Float64bits(cv.mn) != math.Float64bits(want.mn) || math.Float64bits(cv.mx) != math.Float64bits(want.mx) || cv.minIdx != want.minIdx {
				t.Fatalf("trial %d step %d: extrema (%v, %v, %d), rescan (%v, %v, %d) over %v",
					trial, step, cv.mn, cv.mx, cv.minIdx, want.mn, want.mx, want.minIdx, cv.dcount)
			}
		}
	}
}

// TestChooseMatchesRules: Ring and Conv decide exactly as the literal
// rules do, for 1-16 clusters on one-way and two-way rings with the ring
// machine's visibility, over random operand masks, pending flags, register
// occupancy and DCOUNT histories.
func TestChooseMatchesRules(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	for n := 1; n <= regfile.MaxClusters; n++ {
		for _, bidir := range []bool{false, true} {
			m := newMachine(n, bidir)
			for c := range m.vis {
				m.vis[c] = int8((c + 1) % n)
			}
			ring, cv := m.ring(), m.conv(DefaultConvConfig())
			for i := 0; i < 3000; i++ {
				for c := 0; c < n; c++ {
					m.setFree(c, isa.IntReg, r.IntN(12))
					m.setFree(c, isa.FPReg, r.IntN(12))
				}
				req := &Request{NumOps: r.IntN(3), Kind: isa.RegFileKind(r.IntN(2))}
				for j := 0; j < req.NumOps; j++ {
					req.Ops[j] = Operand{Mask: r.Uint32() & allMask(n), Pending: r.IntN(3) == 0}
				}
				checkChoose(t, m, ring, cv, req, bidir)
				cv.OnDispatch(r.IntN(n))
				switch r.IntN(8) {
				case 0, 1:
					cv.Tick()
				case 2:
					cv.TickN(uint64(r.IntN(200)))
				}
			}
		}
	}
}

// FuzzChooseMatchesRules checks Ring and Conv against the literal rules
// on a machine and a request sequence decoded from bytes (see
// chooseFromBytes).
func FuzzChooseMatchesRules(f *testing.F) {
	// Headers for 1, 2, 3, 4, 8, 8, 16 and 16 clusters, one-way and
	// two-way, with and without the ring machine's visibility.
	for i, h := range []byte{0x00, 0x11, 0x22, 0x33, 0x07, 0x37, 0x0f, 0x3f} {
		r := rand.New(rand.NewPCG(uint64(i), 9))
		b := []byte{h, byte(r.IntN(64))}
		for k := 0; k < 16+6*40; k++ {
			b = append(b, byte(r.Uint32()))
		}
		f.Add(b)
	}
	f.Fuzz(chooseFromBytes)
}

// chooseFromBytes decodes a machine and a request sequence and checks
// every request against the literal rules:
//
//   - data[0]: bits 0-3 the cluster count minus one, bit 4 a two-way
//     ring, bit 5 the ring machine's visibility (c writes c+1's file);
//   - data[1]: Conv's DCOUNT decay period minus one, mod 64;
//   - one byte per cluster: its free integer (low nibble) and FP (high
//     nibble) registers;
//   - then six bytes per request: the operand count (mod 3), pending
//     flags (bits 2 and 3) and namespace (bit 4); two little-endian masks;
//     and an event after it — a dispatch to cluster (e&31)%n (e>>5 < 4), a
//     Tick (4), a TickN of (e&31)*13 cycles (5), or one register taken
//     (6) or returned (7) in that cluster.
func chooseFromBytes(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n, bidir := 1+int(data[0]&15), data[0]&16 != 0
	if len(data) < 2+n {
		return
	}
	m := newMachine(n, bidir)
	if data[0]&32 != 0 {
		for c := range m.vis {
			m.vis[c] = int8((c + 1) % n)
		}
	}
	for c, b := range data[2 : 2+n] {
		m.setFree(c, isa.IntReg, int(b&15))
		m.setFree(c, isa.FPReg, int(b>>4))
	}
	ring := m.ring()
	cv := m.conv(ConvConfig{Threshold: 24, DecayPeriod: 1 + int(data[1]&63), DecayFactor: 0.5})
	for rest := data[2+n:]; len(rest) >= 6; rest = rest[6:] {
		req := &Request{NumOps: int(rest[0]) % 3, Kind: isa.RegFileKind(rest[0] >> 4 & 1)}
		for j := 0; j < req.NumOps; j++ {
			mask := uint32(rest[1+2*j]) | uint32(rest[2+2*j])<<8
			req.Ops[j] = Operand{Mask: mask & allMask(n), Pending: rest[0]&(4<<j) != 0}
		}
		checkChoose(t, m, ring, cv, req, bidir)
		e := rest[5]
		c := int(e&31) % n
		switch e >> 5 {
		case 4:
			cv.Tick()
		case 5:
			cv.TickN(uint64(e&31) * 13)
		case 6:
			m.files.Alloc(c, req.Kind)
		case 7:
			if m.files.Used(c, req.Kind) > 0 {
				m.files.Release(c, req.Kind)
			}
		default:
			cv.OnDispatch(c)
		}
	}
}
