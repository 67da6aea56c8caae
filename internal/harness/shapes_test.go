package harness

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Paper shapes: the qualitative claim of every evaluation figure
// (Figures 6-14 and the Section 4.7 text) as an assertion. cmd/paperfigs
// prints the numbers; these tests pin their orderings. All of them read
// one shared grid at 25k measured + 5k warm-up instructions, the budget
// the margins quoted in docs/functional-testing.md were measured at.

var (
	shapesOnce sync.Once
	shapesRes  *Results
	shapesErr  error
)

// paperShapes simulates everything the figures draw from (24
// configurations × 26 programs) once per test binary.
func paperShapes(t *testing.T) *Results {
	t.Helper()
	if testing.Short() {
		t.Skip("624-run figure grid in -short mode")
	}
	shapesOnce.Do(func() { shapesRes, shapesErr = RunAll(25000, 5000) })
	if shapesErr != nil {
		t.Fatal(shapesErr)
	}
	return shapesRes
}

func nready(s *core.Stats) float64 { return s.AvgNReady() }

// TestFig6Orderings pins the paper's qualitative Figure 6 claims at
// reduced scale over the full suite: Ring wins on average and on FP for
// every configuration, FP speedups exceed INT speedups, and removing a
// bus helps Ring relative to Conv.
func TestFig6Orderings(t *testing.T) {
	res := paperShapes(t).Main
	speedups := map[string][3]float64{}
	for _, pair := range ConfigPairs() {
		speedups[pair[0]] = [3]float64{
			Speedup(res, pair[0], pair[1], SuiteAll),
			Speedup(res, pair[0], pair[1], SuiteInt),
			Speedup(res, pair[0], pair[1], SuiteFP),
		}
	}
	for cfg, s := range speedups {
		if s[0] <= 0 {
			t.Errorf("%s: average speedup %.1f%% not positive", cfg, 100*s[0])
		}
		if s[2] <= 0 {
			t.Errorf("%s: FP speedup %.1f%% not positive", cfg, 100*s[2])
		}
		if s[2] <= s[1] {
			t.Errorf("%s: FP speedup %.1f%% not above INT %.1f%%", cfg, 100*s[2], 100*s[1])
		}
	}
	// Scarcer interconnect favors Ring: 1 bus beats 2 buses at both
	// issue widths.
	if speedups["Ring_8clus_1bus_1IW"][0] <= speedups["Ring_8clus_2bus_1IW"][0] {
		t.Error("1-bus speedup not above 2-bus at 1IW")
	}
	if speedups["Ring_8clus_1bus_2IW"][0] <= speedups["Ring_8clus_2bus_2IW"][0] {
		t.Error("1-bus speedup not above 2-bus at 2IW")
	}
}

// TestFig7To10Orderings pins the supporting figures' orderings on every
// Ring/Conv pair: Ring communicates less, over shorter distances, with
// less contention, at slightly worse balance.
func TestFig7To10Orderings(t *testing.T) {
	res := paperShapes(t).Main
	figures := []struct {
		name      string
		metric    Metric
		ringLower bool
	}{
		{"Fig 7 comms/inst", func(s *core.Stats) float64 { return s.CommsPerInst() }, true},
		{"Fig 8 hop distance", func(s *core.Stats) float64 { return s.AvgCommDistance() }, true},
		{"Fig 9 contention delay", func(s *core.Stats) float64 { return s.AvgCommWait() }, true},
		// Conv steers for balance explicitly; Ring only gets it as a
		// by-product of dependence placement.
		{"Fig 10 NREADY", nready, false},
	}
	for _, pair := range ConfigPairs() {
		for _, f := range figures {
			ring := Aggregate(res, pair[0], SuiteAll, f.metric)
			conv := Aggregate(res, pair[1], SuiteAll, f.metric)
			if (ring < conv) != f.ringLower {
				t.Errorf("%s, %s: Ring %.3f vs Conv %.3f on the wrong side", f.name, pair[0], ring, conv)
			}
		}
	}
}

// TestFig11DispatchShares pins Figure 11: on the 8-cluster ring machine
// no cluster is starved or swamped — every cluster's share of dispatched
// instructions stays within half of the even share, for every program.
func TestFig11DispatchShares(t *testing.T) {
	res := paperShapes(t).Main
	const cfg, clusters = "Ring_8clus_1bus_2IW", 8
	even := 1.0 / clusters
	for _, p := range workload.Names() {
		st := res[Key{Config: cfg, Workload: p}].Stats
		for c := 0; c < clusters; c++ {
			if s := st.ClusterShare(c); s < even/2 || s > 3*even/2 {
				t.Errorf("%s: cluster %d dispatches %.1f%%, outside [%.2f%%, %.2f%%]",
					p, c, 100*s, 100*even/2, 100*3*even/2)
			}
		}
	}
}

// TestFig12WireScaling pins Figure 12: slower wires favor Ring — the
// speedup with 2-cycle hops exceeds the 1-cycle one at both bus counts.
func TestFig12WireScaling(t *testing.T) {
	r := paperShapes(t)
	for _, shape := range []string{"8clus_1bus_2IW", "8clus_2bus_2IW"} {
		hop1 := Speedup(r.Main, "Ring_"+shape, "Conv_"+shape, SuiteAll)
		hop2 := Speedup(r.Hop2, "Ring_"+shape+"_2cyclehop", "Conv_"+shape+"_2cyclehop", SuiteAll)
		if hop2 <= hop1 {
			t.Errorf("%s: 2-cycle-hop speedup %.1f%% not above 1-cycle %.1f%%", shape, 100*hop2, 100*hop1)
		}
	}
}

// TestFig13SSASpeedup pins Figure 13: under the simple steering algorithm
// Ring beats Conv on every pair by more than it does under each machine's
// enhanced steering (Figure 6, which TestFig6Orderings holds positive).
func TestFig13SSASpeedup(t *testing.T) {
	r := paperShapes(t)
	for _, pair := range ConfigPairs() {
		ssa := Speedup(r.SSA, pair[0]+"+SSA", pair[1]+"+SSA", SuiteAll)
		enhanced := Speedup(r.Main, pair[0], pair[1], SuiteAll)
		if ssa <= enhanced {
			t.Errorf("%s: SSA speedup %.1f%% not above enhanced-steering speedup %.1f%%",
				pair[0], 100*ssa, 100*enhanced)
		}
	}
}

// TestSSADrop pins the Section 4.7 text: simplifying the steering costs
// Ring less than it costs Conv, on every pair.
func TestSSADrop(t *testing.T) {
	r := paperShapes(t)
	for _, pair := range ConfigPairs() {
		ring := r.crossSpeedup(pair[0]+"+SSA", pair[0], SuiteAll)
		conv := r.crossSpeedup(pair[1]+"+SSA", pair[1], SuiteAll)
		if ring <= conv {
			t.Errorf("%s: Ring's SSA drop %.1f%% not smaller than Conv's %.1f%%", pair[0], 100*ring, 100*conv)
		}
	}
}

// TestFig14SSANReady pins Figure 14: Conv's balance comes from its
// steering, so its NREADY rises under SSA on every configuration; Ring's
// comes from the placement itself and does not.
func TestFig14SSANReady(t *testing.T) {
	r := paperShapes(t)
	for _, pair := range ConfigPairs() {
		ring, ringSSA := Aggregate(r.Main, pair[0], SuiteAll, nready), Aggregate(r.SSA, pair[0]+"+SSA", SuiteAll, nready)
		conv, convSSA := Aggregate(r.Main, pair[1], SuiteAll, nready), Aggregate(r.SSA, pair[1]+"+SSA", SuiteAll, nready)
		if convSSA <= conv {
			t.Errorf("%s: NREADY %.3f under SSA not above %.3f", pair[1], convSSA, conv)
		}
		if ringSSA > ring {
			t.Errorf("%s: NREADY %.3f under SSA above %.3f", pair[0], ringSSA, ring)
		}
	}
}
