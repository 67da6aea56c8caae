package dse

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
)

// twinSpace separates the design space along the two axes the calibrated
// model discriminates hardest: ring-vs-conv at equal area, and the
// cluster count, which scales both objectives. Four candidates in two
// equal-area pairs — small enough for tier-1, structured enough that the
// gate must actually skip the dominated architecture.
func twinSpace() Space {
	return Space{
		Base: core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		Axes: []Axis{
			{Name: AxisArch, Values: []int{0, 1}},
			{Name: AxisClusters, Values: []int{4, 8}},
		},
	}
}

// runTwinPair explores the same space exhaustively and twin-gated over a
// shared store: the twin's verification runs re-hit the exhaustive
// results byte-for-byte, so any frontier difference is the gate's fault,
// never simulation noise.
func runTwinPair(t *testing.T, progs []string, insts, warmup uint64) (exact, twin *Report) {
	t.Helper()
	store := results.NewMemoryLRU(256)
	opts := func(tw *TwinOptions) Options {
		strat, err := NewStrategy("grid", 0)
		if err != nil {
			t.Fatal(err)
		}
		return Options{
			Space:     twinSpace(),
			Strategy:  strat,
			Evaluator: &SimEvaluator{Programs: progs, Insts: insts, Warmup: warmup, Store: store},
			Twin:      tw,
		}
	}
	exact, err := Explore(opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	twin, err = Explore(opts(&TwinOptions{
		Mode:     TwinOn,
		Programs: progs,
		Insts:    insts,
		Warmup:   warmup,
		Profiles: harness.NewProfileCache(""),
	}))
	if err != nil {
		t.Fatal(err)
	}
	return exact, twin
}

// frontierMap keys a frontier by candidate config name.
func frontierMap(rep *Report) map[string]Objectives {
	m := make(map[string]Objectives, len(rep.Frontier))
	for _, p := range rep.Frontier {
		m[p.Config] = p.Objectives
	}
	return m
}

// checkFrontierEqual asserts the twin-gated frontier is identical to the
// exhaustive one — same candidates, same simulated objectives — and that
// the gate actually earned its keep (sims avoided, MAPE measured).
func checkFrontierEqual(t *testing.T, exact, twin *Report) {
	t.Helper()
	ef, tf := frontierMap(exact), frontierMap(twin)
	if len(ef) != len(tf) {
		t.Fatalf("frontier size: exhaustive %d, twin %d", len(ef), len(tf))
	}
	for name, eo := range ef {
		to, ok := tf[name]
		if !ok {
			t.Fatalf("twin frontier misses exhaustive point %s", name)
		}
		if eo != to {
			t.Errorf("%s: objectives diverge: exhaustive %+v, twin %+v", name, eo, to)
		}
	}
	if twin.TwinMode != string(TwinOn) {
		t.Errorf("TwinMode = %q, want %q", twin.TwinMode, TwinOn)
	}
	if twin.SimsAvoided == 0 {
		t.Error("twin avoided no simulations: the gate is not gating")
	}
	if twin.TwinPredictions == 0 {
		t.Error("no twin predictions recorded")
	}
	if twin.SimsRun+twin.CacheHits+twin.SimsAvoided != exact.SimsRun+exact.CacheHits {
		t.Errorf("sims accounting: twin ran %d + hit %d + avoided %d, exhaustive answered %d",
			twin.SimsRun, twin.CacheHits, twin.SimsAvoided, exact.SimsRun+exact.CacheHits)
	}
}

func TestTwinFrontierEqualsExhaustiveFixed(t *testing.T) {
	exact, twin := runTwinPair(t, []string{"gcc", "swim"}, 20_000, 4_000)
	checkFrontierEqual(t, exact, twin)
}

func TestTwinFrontierEqualsExhaustiveSynthetic(t *testing.T) {
	exact, twin := runTwinPair(t, []string{"synth@5", "synth-random@7"}, 20_000, 4_000)
	checkFrontierEqual(t, exact, twin)
}

// TestTwinMAPECeiling pins the prediction error on the verified set: the
// run is deterministic, so a ceiling regression means the model or the
// profile extractor changed, not luck.
func TestTwinMAPECeiling(t *testing.T) {
	_, twin := runTwinPair(t, []string{"gcc", "swim"}, 50_000, 10_000)
	if twin.TwinMAPE <= 0 {
		t.Fatalf("TwinMAPE = %v, want > 0 (verified candidates exist)", twin.TwinMAPE)
	}
	const ceiling = 20.0 // percent; 15.8 measured, model calibrated at 300k insts
	if twin.TwinMAPE > ceiling {
		t.Errorf("TwinMAPE = %.2f%%, above pinned ceiling %.0f%%", twin.TwinMAPE, ceiling)
	}
}

// TestTwinOffIsExhaustive: -twin=off must be the exact PR 2 path — same
// evaluations, same frontier, no twin accounting.
func TestTwinOffIsExhaustive(t *testing.T) {
	store := results.NewMemoryLRU(256)
	run := func(tw *TwinOptions) *Report {
		strat, err := NewStrategy("grid", 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Explore(Options{
			Space:     twinSpace(),
			Strategy:  strat,
			Evaluator: &SimEvaluator{Programs: []string{"gcc"}, Insts: 2_000, Warmup: 400, Store: store},
			Twin:      tw,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil)
	off := run(&TwinOptions{Mode: TwinOff, Programs: []string{"gcc"}, Insts: 2_000, Warmup: 400})
	if off.TwinMode != "" || off.TwinPredictions != 0 || off.SimsAvoided != 0 {
		t.Errorf("twin=off leaked twin accounting: %+v", off)
	}
	if off.Evaluated != plain.Evaluated || len(off.Frontier) != len(plain.Frontier) {
		t.Errorf("twin=off diverged from plain exhaustive: evaluated %d vs %d, frontier %d vs %d",
			off.Evaluated, plain.Evaluated, len(off.Frontier), len(plain.Frontier))
	}
	ef, of := frontierMap(plain), frontierMap(off)
	for name, eo := range ef {
		if of[name] != eo {
			t.Errorf("%s: twin=off objectives %+v, plain %+v", name, of[name], eo)
		}
	}
}

func TestParseTwinMode(t *testing.T) {
	for in, want := range map[string]TwinMode{"on": TwinOn, "off": TwinOff, "auto": TwinAuto, "": TwinOff} {
		got, err := ParseTwinMode(in)
		if err != nil || got != want {
			t.Errorf("ParseTwinMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseTwinMode("fast")
	if err == nil {
		t.Fatal("ParseTwinMode(fast) succeeded")
	}
	for _, frag := range []string{"-twin", "fast", "on, off, auto"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
}

// TestTwinOnRequiresGrid: the gate ranks the whole space, so -twin=on
// refuses stochastic strategies with an actionable error.
func TestTwinOnRequiresGrid(t *testing.T) {
	strat, err := NewStrategy("random", 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Explore(Options{
		Space:     twinSpace(),
		Strategy:  strat,
		Evaluator: &SimEvaluator{Programs: []string{"gcc"}, Insts: 1_000, Warmup: 200},
		Twin:      &TwinOptions{Mode: TwinOn, Programs: []string{"gcc"}, Insts: 1_000, Warmup: 200},
	})
	if err == nil {
		t.Fatal("twin=on over random strategy succeeded")
	}
	for _, frag := range []string{"-twin=on", "-strategy=grid", "random"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
}

// TestTwinAuto pins the auto heuristic: grid over a big-enough space
// gates, anything else silently falls back to exhaustive.
func TestTwinAuto(t *testing.T) {
	grid, err := NewStrategy("grid", 0)
	if err != nil {
		t.Fatal(err)
	}
	random, err := NewStrategy("random", 4)
	if err != nil {
		t.Fatal(err)
	}
	auto := &TwinOptions{Mode: TwinAuto}
	if on, err := auto.Enabled(grid, TwinAutoMinSpace); err != nil || !on {
		t.Errorf("auto over grid of %d: enabled=%v, err=%v; want true", TwinAutoMinSpace, on, err)
	}
	if on, err := auto.Enabled(grid, TwinAutoMinSpace-1); err != nil || on {
		t.Errorf("auto over grid of %d: enabled=%v, err=%v; want false", TwinAutoMinSpace-1, on, err)
	}
	if on, err := auto.Enabled(random, 1000); err != nil || on {
		t.Errorf("auto over random: enabled=%v, err=%v; want false", on, err)
	}
	var none *TwinOptions
	if on, err := none.Enabled(grid, 1000); err != nil || on {
		t.Errorf("nil options: enabled=%v, err=%v; want false", on, err)
	}
}
