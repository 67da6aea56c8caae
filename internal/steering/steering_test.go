package steering

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// mockView is a scripted machine state for steering decisions.
type mockView struct {
	n    int
	free map[[2]int]int // (cluster, kind) -> free registers
	// distance is unidirectional ring distance unless bidir is set.
	bidir bool
}

func (v *mockView) NumClusters() int { return v.n }

func (v *mockView) FreeRegs(c int, kind isa.RegFileKind) int {
	if f, ok := v.free[[2]int{c, int(kind)}]; ok {
		return f
	}
	return 10
}

func (v *mockView) CommDistance(src, dst int) int {
	fwd := ((dst-src)%v.n + v.n) % v.n
	if !v.bidir {
		return fwd
	}
	bwd := v.n - fwd
	if bwd < fwd {
		return bwd
	}
	return fwd
}

func (v *mockView) setFree(c int, kind isa.RegFileKind, f int) {
	if v.free == nil {
		v.free = map[[2]int]int{}
	}
	v.free[[2]int{c, int(kind)}] = f
}

func op(mask uint32) Operand { return Operand{Mask: mask} }

func TestRingZeroSourceGoesToMostFree(t *testing.T) {
	v := &mockView{n: 4}
	v.setFree(2, isa.IntReg, 20)
	r := NewRing()
	req := &Request{Kind: isa.IntReg}
	if got := r.Choose(v, req); got != 2 {
		t.Fatalf("0-src chose %d, want 2 (most free)", got)
	}
}

func TestRingOneSourceFollowsMapping(t *testing.T) {
	v := &mockView{n: 4}
	v.setFree(3, isa.IntReg, 100) // tempting but not mapped
	r := NewRing()
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 1)
	if got := r.Choose(v, req); got != 1 {
		t.Fatalf("1-src chose %d, want 1 (only mapped cluster)", got)
	}
}

func TestRingOneSourceTieBreaksByFreeRegs(t *testing.T) {
	v := &mockView{n: 4}
	v.setFree(1, isa.IntReg, 5)
	v.setFree(2, isa.IntReg, 9)
	r := NewRing()
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1<<1 | 1<<2)
	if got := r.Choose(v, req); got != 2 {
		t.Fatalf("chose %d, want 2 (more free registers)", got)
	}
}

func TestRingTwoSourcesPreferCommonCluster(t *testing.T) {
	v := &mockView{n: 4}
	r := NewRing()
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1<<0 | 1<<2)
	req.Ops[1] = op(1<<2 | 1<<3)
	if got := r.Choose(v, req); got != 2 {
		t.Fatalf("chose %d, want 2 (both operands mapped)", got)
	}
}

func TestRingTwoSourcesMinimizeCommDistance(t *testing.T) {
	// Operand A mapped at 1, operand B at 2: candidates are 1 and 2.
	// Steering to 2 needs A moved 1->2 (1 hop); steering to 1 needs B
	// moved 2->1 (3 hops on a 4-ring). Cluster 2 must win.
	v := &mockView{n: 4}
	r := NewRing()
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 1)
	req.Ops[1] = op(1 << 2)
	if got := r.Choose(v, req); got != 2 {
		t.Fatalf("chose %d, want 2 (shorter communication)", got)
	}
}

func TestRingNeverNeedsTwoComms(t *testing.T) {
	// Property from Section 3.1: a 2-source instruction always lands on
	// a cluster where at least one operand is mapped.
	v := &mockView{n: 8}
	r := NewRing()
	for m0 := uint32(1); m0 < 1<<8; m0 <<= 1 {
		for m1 := uint32(1); m1 < 1<<8; m1 <<= 1 {
			req := &Request{NumOps: 2, Kind: isa.IntReg}
			req.Ops[0] = op(m0)
			req.Ops[1] = op(m1)
			c := r.Choose(v, req)
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
	v := &mockView{n: 4}
	r := NewRing()

	// I1: R1 = 1 (no sources). Paper sends it "randomly" to 0; the
	// deterministic tie-break picks the most-free, lowest-index cluster.
	v.setFree(0, isa.IntReg, 99)
	req := &Request{Kind: isa.IntReg}
	if got := r.Choose(v, req); got != 0 {
		t.Fatalf("I1 to %d, want 0", got)
	}
	r1 := op(1 << 1) // produced in 0 => readable in 1

	// I2: R2 = R1 + 1. R1 is mapped (will be) in cluster 1.
	req = &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = r1
	if got := r.Choose(v, req); got != 1 {
		t.Fatalf("I2 to %d, want 1", got)
	}
	r2 := op(1 << 2)

	// I3: R3 = R1 + R2. R1 at {1}, R2 at {2}: no common cluster;
	// steering to 2 moves R1 one hop — the paper's choice.
	req = &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = r1
	req.Ops[1] = r2
	if got := r.Choose(v, req); got != 2 {
		t.Fatalf("I3 to %d, want 2", got)
	}
	r1after := op(1<<1 | 1<<2) // copy of R1 now also at 2
	r3 := op(1 << 3)

	// I4: R4 = R1 + R3. R1 at {1,2}, R3 at {3}: cluster 3 needs R1 from
	// 2 (1 hop) — the paper steers I4 to 3.
	req = &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = r1after
	req.Ops[1] = r3
	if got := r.Choose(v, req); got != 3 {
		t.Fatalf("I4 to %d, want 3", got)
	}

	// I5: R5 = R1 x 3. R1 mapped at {1,2,3}; the paper picks cluster 3
	// because it has the most free registers.
	v.setFree(0, isa.IntReg, 10)
	v.setFree(3, isa.IntReg, 50)
	req = &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(1<<1 | 1<<2 | 1<<3)
	if got := r.Choose(v, req); got != 3 {
		t.Fatalf("I5 to %d, want 3", got)
	}
}

func TestConvImbalanceOverride(t *testing.T) {
	v := &mockView{n: 4, bidir: true}
	cv := NewConv(4, ConvConfig{Threshold: 10, DecayPeriod: 64, DecayFactor: 0.5})
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
	if got := cv.Choose(v, req); got == 0 {
		t.Fatal("override did not leave the overloaded cluster")
	}
}

func TestConvPendingOperandFollowsProducer(t *testing.T) {
	v := &mockView{n: 4, bidir: true}
	cv := NewConv(4, DefaultConvConfig())
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = Operand{Mask: 1 << 2, Pending: true}
	req.Ops[1] = op(1 << 0) // available elsewhere
	if got := cv.Choose(v, req); got != 2 {
		t.Fatalf("chose %d, want 2 (pending producer)", got)
	}
}

func TestConvAvailableOperandsMinimizeLongestDistance(t *testing.T) {
	v := &mockView{n: 8, bidir: true}
	cv := NewConv(8, DefaultConvConfig())
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1 << 0)
	req.Ops[1] = op(1 << 2)
	// Candidates minimizing max distance: cluster 1 (1,1); clusters 0
	// and 2 have max distance 2. Expect 1.
	if got := cv.Choose(v, req); got != 1 {
		t.Fatalf("chose %d, want 1", got)
	}
}

func TestConvNoSourcesPicksLeastLoaded(t *testing.T) {
	v := &mockView{n: 4, bidir: true}
	cv := NewConv(4, DefaultConvConfig())
	cv.OnDispatch(0)
	cv.OnDispatch(1)
	cv.OnDispatch(2)
	req := &Request{Kind: isa.IntReg}
	if got := cv.Choose(v, req); got != 3 {
		t.Fatalf("chose %d, want 3 (least loaded)", got)
	}
}

func TestConvDCountSumZero(t *testing.T) {
	cv := NewConv(4, DefaultConvConfig())
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
	cfg := ConvConfig{Threshold: 24, DecayPeriod: 4, DecayFactor: 0.5}
	cv := NewConv(2, cfg)
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
	NewConv(4, ConvConfig{Threshold: 0, DecayPeriod: 64, DecayFactor: 0.5})
}

func TestSSALeftmostLowestIndex(t *testing.T) {
	v := &mockView{n: 8}
	s := NewSSA(8)
	req := &Request{NumOps: 2, Kind: isa.IntReg}
	req.Ops[0] = op(1<<5 | 1<<2)
	req.Ops[1] = op(1 << 0) // ignored: only the leftmost counts
	if got := s.Choose(v, req); got != 2 {
		t.Fatalf("chose %d, want 2 (lowest index of leftmost operand)", got)
	}
}

func TestSSARoundRobinWithoutOperands(t *testing.T) {
	v := &mockView{n: 4}
	s := NewSSA(4)
	req := &Request{Kind: isa.IntReg}
	seen := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		seen = append(seen, s.Choose(v, req))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("round robin sequence %v", seen)
		}
	}
}

func TestSSAEmptyMaskFallsBackToAll(t *testing.T) {
	v := &mockView{n: 4}
	s := NewSSA(4)
	req := &Request{NumOps: 1, Kind: isa.IntReg}
	req.Ops[0] = op(0)
	if got := s.Choose(v, req); got != 0 {
		t.Fatalf("chose %d, want 0", got)
	}
}

func TestAlgorithmNames(t *testing.T) {
	if NewRing().Name() == "" || NewSSA(2).Name() == "" || NewConv(2, DefaultConvConfig()).Name() == "" {
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
		cv := NewConv(n, ConvConfig{Threshold: 24, DecayPeriod: 1 + r.IntN(64), DecayFactor: []float64{0.5, 0.75, 0.3}[r.IntN(3)]})
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

// filesView is a View over a real register file and a fabric distance
// matrix, the inputs the geometry-primed paths read directly.
type filesView struct {
	n       int
	files   *regfile.Files
	vis     []int8
	minDist []int8
}

func (v *filesView) NumClusters() int { return v.n }
func (v *filesView) FreeRegs(c int, kind isa.RegFileKind) int {
	return v.files.Free(int(v.vis[c]), kind)
}
func (v *filesView) CommDistance(src, dst int) int { return int(v.minDist[src*v.n+dst]) }

// TestTablePathMatchesViewPath: a Ring or Conv primed with its geometry
// table decides exactly as the View-driven rules do, for 2-8 clusters on
// unidirectional and bidirectional rings, over random operand masks,
// pending flags, register occupancy and DCOUNT histories. Each policy
// builds only its own pair table.
func TestTablePathMatchesViewPath(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	for n := 2; n <= maxTableClusters; n++ {
		for _, bidir := range []bool{false, true} {
			mv := &mockView{n: n, bidir: bidir}
			minDist := make([]int8, n*n)
			vis := make([]int8, n)
			for s := 0; s < n; s++ {
				vis[s] = int8((s + 1) % n)
				for d := 0; d < n; d++ {
					minDist[s*n+d] = int8(mv.CommDistance(s, d))
				}
			}
			files := regfile.New(n, 48, 48)
			fv := &filesView{n: n, files: files, vis: vis, minDist: minDist}
			ringT, ringV := NewRing(), NewRing()
			ringT.PrimeGeometry(minDist, files, vis)
			convT, convV := NewConv(n, DefaultConvConfig()), NewConv(n, DefaultConvConfig())
			convT.PrimeGeometry(n, minDist)
			if ringT.tab == nil || convT.tab == nil || ringT.tab == convT.tab {
				t.Fatalf("n=%d: tables not primed per policy", n)
			}
			for i := 0; i < 3000; i++ {
				files.Reset(n, 48, 48)
				for c := 0; c < n; c++ {
					for k := 0; k < r.IntN(48); k++ {
						files.Alloc(c, isa.IntReg)
					}
				}
				req := &Request{NumOps: r.IntN(3), Kind: isa.IntReg}
				for j := 0; j < req.NumOps; j++ {
					req.Ops[j] = Operand{Mask: r.Uint32() & allMask(n), Pending: r.IntN(3) == 0}
				}
				if got, want := ringT.Choose(fv, req), ringV.Choose(fv, req); got != want {
					t.Fatalf("n=%d bidir=%v %+v: Ring table chose %d, View path %d", n, bidir, *req, got, want)
				}
				if got, want := convT.Choose(fv, req), convV.Choose(fv, req); got != want {
					t.Fatalf("n=%d bidir=%v %+v: Conv table chose %d, View path %d", n, bidir, *req, got, want)
				}
				c := r.IntN(n)
				convT.OnDispatch(c)
				convV.OnDispatch(c)
				if r.IntN(4) == 0 {
					convT.Tick()
					convV.Tick()
				}
			}
		}
	}
}
