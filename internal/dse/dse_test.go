package dse

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// testSpace is a small 3-axis space (2×2×2 = 8 points) over the paper's
// 4-cluster ring base, cheap enough to exhaust in tests.
func testSpace() Space {
	return Space{
		Base: core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		Axes: []Axis{
			{Name: AxisArch, Values: []int{0, 1}},
			{Name: AxisIW, Values: []int{1, 2}},
			{Name: AxisBuses, Values: []int{1, 2}},
		},
	}
}

// testEval builds a fast evaluator over the given store.
func testEval(store results.Store) *SimEvaluator {
	return &SimEvaluator{
		Programs: []string{"gcc", "swim"},
		Insts:    1_500,
		Warmup:   300,
		Store:    store,
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Objectives
		want bool
	}{
		{Objectives{IPC: 2, Area: 100}, Objectives{IPC: 1, Area: 200}, true},
		{Objectives{IPC: 2, Area: 100}, Objectives{IPC: 2, Area: 100}, false}, // equal: no strict edge
		{Objectives{IPC: 2, Area: 100}, Objectives{IPC: 2, Area: 150}, true},
		{Objectives{IPC: 1, Area: 100}, Objectives{IPC: 2, Area: 50}, false},
		{Objectives{IPC: 2, Area: 200}, Objectives{IPC: 1, Area: 100}, false}, // trade-off: incomparable
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%+v dominates %+v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFrontierPruning(t *testing.T) {
	var f Frontier
	pt := func(ipc, area float64) Point {
		return Point{Objectives: Objectives{IPC: ipc, Area: area}}
	}
	if !f.Add(pt(1.0, 100)) {
		t.Fatal("first point rejected")
	}
	// Incomparable point joins.
	if !f.Add(pt(2.0, 200)) {
		t.Fatal("incomparable point rejected")
	}
	if f.Len() != 2 {
		t.Fatalf("frontier size %d, want 2", f.Len())
	}
	// Dominated point is refused.
	if f.Add(pt(0.5, 150)) {
		t.Error("dominated point accepted")
	}
	// A dominating point evicts everything it beats.
	if !f.Add(pt(2.5, 90)) {
		t.Fatal("dominating point rejected")
	}
	got := f.Points()
	if len(got) != 1 || got[0].Objectives.IPC != 2.5 {
		t.Fatalf("frontier after dominating add: %+v", got)
	}
	// Points come back sorted by ascending area.
	f = Frontier{}
	f.Add(pt(3, 300))
	f.Add(pt(1, 100))
	f.Add(pt(2, 200))
	ps := f.Points()
	for i := 1; i < len(ps); i++ {
		if ps[i].Objectives.Area < ps[i-1].Objectives.Area {
			t.Fatalf("frontier not sorted by area: %+v", ps)
		}
	}
}

func TestSpaceGridAndNeighbors(t *testing.T) {
	s := testSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	grid := s.Grid()
	if len(grid) != 8 || s.Size() != 8 {
		t.Fatalf("grid has %d points, size %d, want 8", len(grid), s.Size())
	}
	seen := make(map[string]bool)
	for _, c := range grid {
		seen[c.Key()] = true
	}
	if len(seen) != 8 {
		t.Fatalf("grid has %d distinct keys, want 8", len(seen))
	}
	// A corner point has exactly one neighbor per axis.
	corner := Candidate{Params: map[string]int{AxisArch: 0, AxisIW: 1, AxisBuses: 1}}
	if n := s.Neighbors(corner); len(n) != 3 {
		t.Fatalf("corner has %d neighbors, want 3", len(n))
	}
}

func TestSpaceValidate(t *testing.T) {
	base := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	cases := []Space{
		{Base: base}, // no axes
		{Base: base, Axes: []Axis{{Name: "frequency", Values: []int{1}}}},                              // unknown
		{Base: base, Axes: []Axis{{Name: AxisIW}}},                                                     // empty axis
		{Base: base, Axes: []Axis{{Name: AxisIW, Values: []int{1}}, {Name: AxisIW, Values: []int{2}}}}, // dup
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid space accepted", i)
		}
	}
}

func TestCandidateConfigNameIsCanonical(t *testing.T) {
	s := testSpace()
	a := Candidate{Params: map[string]int{AxisArch: 0, AxisIW: 2, AxisBuses: 1}}
	cfgA, err := s.Config(a)
	if err != nil {
		t.Fatal(err)
	}
	// The same point proposed through a space that pins iw in the base
	// must produce the identical config (same name, same content hash).
	s2 := s
	s2.Base.IssueInt, s2.Base.IssueFP = 2, 2
	s2.Axes = []Axis{
		{Name: AxisArch, Values: []int{0, 1}},
		{Name: AxisBuses, Values: []int{1, 2}},
	}
	b := Candidate{Params: map[string]int{AxisArch: 0, AxisBuses: 1}}
	cfgB, err := s2.Config(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgA, cfgB) {
		t.Errorf("equivalent candidates materialize differently:\n%+v\n%+v", cfgA, cfgB)
	}
}

func TestSpaceSkipsInvalidPoints(t *testing.T) {
	// 18 clusters is outside the validator's range: the point must be
	// skipped, not fatal, and the rest of the axis must still evaluate.
	s := Space{
		Base: core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		Axes: []Axis{
			{Name: AxisClusters, Values: []int{2, 18}},
			{Name: AxisIW, Values: []int{1}},
			{Name: AxisBuses, Values: []int{1}},
		},
	}
	rep, err := Explore(Options{
		Space:     s,
		Strategy:  &GridStrategy{},
		Evaluator: testEval(nil),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Evaluated != 1 {
		t.Fatalf("skipped=%d evaluated=%d, want 1/1", rep.Skipped, rep.Evaluated)
	}
}

func TestParseAxes(t *testing.T) {
	axes, err := ParseAxes("clusters=4,8;iw=1..2;hop=1..5/2;arch=ring,conv")
	if err != nil {
		t.Fatal(err)
	}
	want := []Axis{
		{Name: "clusters", Values: []int{4, 8}},
		{Name: "iw", Values: []int{1, 2}},
		{Name: "hop", Values: []int{1, 3, 5}},
		{Name: "arch", Values: []int{0, 1}},
	}
	if !reflect.DeepEqual(axes, want) {
		t.Fatalf("ParseAxes = %+v, want %+v", axes, want)
	}
	for _, bad := range []string{"", "clusters", "clusters=", "clusters=x", "clusters=4x8", "hop=5..1", "hop=1..4/0", "hop=1..4/2x", "arch=torus"} {
		if _, err := ParseAxes(bad); err == nil {
			t.Errorf("ParseAxes(%q) accepted", bad)
		}
	}
}

// TestParseAxesBounds: an axis may expand to MaxAxisValues values and no
// more — counted before anything is allocated, across all of the axis's
// items — and a range that ends at the largest int stops there.
func TestParseAxesBounds(t *testing.T) {
	top, err := ParseAxes("iq=9223372036854775806..9223372036854775807")
	if err != nil || !reflect.DeepEqual(top[0].Values, []int{math.MaxInt - 1, math.MaxInt}) {
		t.Fatalf("range to MaxInt: %+v, %v", top, err)
	}
	if axes, err := ParseAxes(fmt.Sprintf("iq=1..%d", MaxAxisValues)); err != nil || len(axes[0].Values) != MaxAxisValues {
		t.Fatalf("a range of exactly MaxAxisValues: %v", err)
	}
	for _, bad := range []string{
		"iq=1..2000000000",
		"iq=-9223372036854775808..9223372036854775807",
		fmt.Sprintf("iq=1..%d", MaxAxisValues+1),
		fmt.Sprintf("iq=1..%d,7", MaxAxisValues),
		fmt.Sprintf("iq=0..%d/2,1..%d/2", 2*MaxAxisValues-2, 2*MaxAxisValues),
	} {
		_, err := ParseAxes(bad)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxAxisValues)) {
			t.Errorf("ParseAxes(%q): %v, want an error naming the %d-value cap", bad, err, MaxAxisValues)
		}
	}
}

// FuzzParseAxes: ParseAxes never panics and always returns (a range is
// counted, not walked, before it is expanded), and a spec it accepts has
// between one and MaxAxisValues values on every axis.
func FuzzParseAxes(f *testing.F) {
	for _, seed := range []string{
		"clusters=4,8;iw=1..2;hop=1..5/2;arch=ring,conv",
		"iq=1..2000000000",
		"iq=9223372036854775806..9223372036854775807",
		"iq=-9223372036854775808..9223372036854775807/3",
		"iq=1..4096;rob=8..64/8,128",
		"arch=0,1,ring;;iw= 2 , 4 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		axes, err := ParseAxes(spec)
		if err != nil {
			return
		}
		for _, ax := range axes {
			if n := len(ax.Values); n == 0 || n > MaxAxisValues {
				t.Fatalf("ParseAxes(%q): axis %q has %d values", spec, ax.Name, n)
			}
		}
	})
}

// TestExploreGridZeroResim is the acceptance test: an exhaustive
// exploration over a 3-axis space yields a non-empty frontier over both
// objectives, and re-running the identical exploration against the same
// store performs zero new simulations — every point is a cache hit.
func TestExploreGridZeroResim(t *testing.T) {
	store := results.NewMemoryLRU(256)
	opts := Options{
		Space:     testSpace(),
		Strategy:  &GridStrategy{},
		Evaluator: testEval(store),
		Seed:      1,
	}
	rep1, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Evaluated != 8 {
		t.Fatalf("first pass evaluated %d points, want 8", rep1.Evaluated)
	}
	if len(rep1.Frontier) == 0 {
		t.Fatal("first pass found an empty frontier")
	}
	if rep1.SimsRun != 8*2 || rep1.CacheHits != 0 {
		t.Fatalf("first pass sims=%d hits=%d, want 16/0", rep1.SimsRun, rep1.CacheHits)
	}
	// Frontier points must be mutually non-dominated and span both
	// objectives when more than one survives.
	for i, p := range rep1.Frontier {
		for j, q := range rep1.Frontier {
			if i != j && p.Objectives.Dominates(q.Objectives) {
				t.Fatalf("frontier member %+v dominates member %+v", p, q)
			}
		}
	}

	// Second identical exploration: all cache, no simulation.
	opts.Evaluator = testEval(store)
	rep2, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SimsRun != 0 {
		t.Fatalf("re-exploration ran %d simulations, want 0", rep2.SimsRun)
	}
	if rep2.CacheHits != 8*2 {
		t.Fatalf("re-exploration cache hits = %d, want 16", rep2.CacheHits)
	}
	if rep2.CacheHitRate() != 1 {
		t.Fatalf("re-exploration hit rate = %v, want 1", rep2.CacheHitRate())
	}
	if !reflect.DeepEqual(rep1.Frontier, rep2.Frontier) {
		t.Error("cached exploration found a different frontier")
	}
}

// TestExploreRandomDeterministicAndBudget checks seeding and the budget
// clamp.
func TestExploreRandomDeterministicAndBudget(t *testing.T) {
	store := results.NewMemoryLRU(256)
	opts := Options{
		Space:     testSpace(),
		Strategy:  &RandomStrategy{Samples: 6, Batch: 2},
		Evaluator: testEval(store),
		Budget:    4,
		Seed:      7,
	}
	rep1, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Evaluated > 4 {
		t.Fatalf("budget 4 but evaluated %d", rep1.Evaluated)
	}
	// Same seed, same store: identical points, all cached.
	rep2, err := Explore(Options{
		Space:     opts.Space,
		Strategy:  &RandomStrategy{Samples: 6, Batch: 2},
		Evaluator: testEval(store),
		Budget:    4,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SimsRun != 0 {
		t.Fatalf("replayed exploration simulated %d times", rep2.SimsRun)
	}
	if !reflect.DeepEqual(pointKeys(rep1.Points), pointKeys(rep2.Points)) {
		t.Error("same seed explored different points")
	}
}

// TestExploreClimberConverges runs the adaptive strategy and checks it
// terminates with a frontier no worse than a pure random sample of the
// same budget (it subsumes its own seeds).
func TestExploreClimberConverges(t *testing.T) {
	store := results.NewMemoryLRU(256)
	rep, err := Explore(Options{
		Space:     testSpace(),
		Strategy:  &ClimberStrategy{Seeds: 2, MaxRounds: 8},
		Evaluator: testEval(store),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("climber found no frontier")
	}
	if rep.Rounds < 2 {
		t.Fatalf("climber stopped after %d rounds — never expanded its seeds", rep.Rounds)
	}
	// Every frontier member's in-space neighbors were proposed: the
	// climb only ends when the frontier is locally closed (or capped).
	if rep.Rounds >= 8 {
		t.Logf("climber hit MaxRounds (frontier size %d)", len(rep.Frontier))
	}
}

// pointKeys projects evaluation order onto candidate keys.
func pointKeys(ps []Point) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Candidate.Key()
	}
	return out
}

func TestAreaScalesWithKnobs(t *testing.T) {
	small := core.MustPaperConfig(core.ArchRing, 4, 1, 1)
	big := core.MustPaperConfig(core.ArchRing, 8, 2, 1)
	if Area(small) <= 0 {
		t.Fatal("non-positive area")
	}
	if Area(big) <= Area(small) {
		t.Errorf("8-cluster 2IW area %.0f not larger than 4-cluster 1IW %.0f", Area(big), Area(small))
	}
	wide := small
	wide.IssueInt, wide.IssueFP = 2, 2
	if Area(wide) <= Area(small) {
		t.Error("wider issue is free in the area model")
	}
	moreRegs := small
	moreRegs.RegsInt, moreRegs.RegsFP = 96, 96
	if Area(moreRegs) <= Area(small) {
		t.Error("larger register file is free in the area model")
	}
}

// TestEvaluateMatchesEvaluateBatch pins that the per-candidate and the
// whole-batch entry points are one evaluator: over a cold store each,
// every candidate gets the same objectives, the same sim/hit accounting
// and the same error, whether it is scored alone or with the rest.
func TestEvaluateMatchesEvaluateBatch(t *testing.T) {
	space := testSpace()
	var cfgs []core.Config
	var progs [][]string
	for i, c := range space.Grid() {
		cfg, err := space.Config(c)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
		switch i % 4 {
		case 0:
			progs = append(progs, nil) // the evaluator's default suite
		case 1:
			progs = append(progs, []string{"mcf", "gcc+swim"})
		case 2:
			progs = append(progs, []string{"synth(ilp=8,ws=64K)@3"})
		default:
			progs = append(progs, []string{"gcc", "no-such-program"})
		}
	}

	objs, stats, errs := testEval(results.NewMemoryLRU(256)).EvaluateBatch(cfgs, progs)
	single := testEval(results.NewMemoryLRU(256))
	for i, cfg := range cfgs {
		obj, st, err := single.Evaluate(cfg, progs[i])
		if obj != objs[i] || st != stats[i] {
			t.Errorf("%s %v: Evaluate = %+v %+v, EvaluateBatch = %+v %+v", cfg.Name, progs[i], obj, st, objs[i], stats[i])
		}
		if (err == nil) != (errs[i] == nil) || (err != nil && err.Error() != errs[i].Error()) {
			t.Errorf("%s %v: Evaluate err = %v, EvaluateBatch err = %v", cfg.Name, progs[i], err, errs[i])
		}
		if wantErr := i%4 == 3; (err != nil) != wantErr {
			t.Errorf("%s %v: err = %v, want error %v", cfg.Name, progs[i], err, wantErr)
		}
	}
}

// TestExploreIndependentOfConcurrency: the report is a function of the
// options alone — the same at Concurrency 1 and 4.
func TestExploreIndependentOfConcurrency(t *testing.T) {
	explore := func(ev Evaluator, workers int) *Report {
		t.Helper()
		rep, err := Explore(Options{
			Space:       testSpace(),
			Strategy:    &RandomStrategy{Samples: 6, Batch: 3},
			Evaluator:   ev,
			Concurrency: workers,
			Seed:        11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := explore(testEval(results.NewMemoryLRU(256)), 1)
	if want.Evaluated == 0 || want.SimsRun == 0 {
		t.Fatalf("reference exploration did no work: %+v", want)
	}
	if got := explore(testEval(results.NewMemoryLRU(256)), 4); !reflect.DeepEqual(got, want) {
		t.Errorf("Concurrency 4 report differs from Concurrency 1\n got %+v\nwant %+v", got, want)
	}
}

// TestPaperMachineOnFrontier: the paper argues for the ring organization
// at 8 clusters, 1 bus and 2-wide issue by comparing the Table 3 machines
// by hand. Handed the whole arch × clusters × buses × issue-width space,
// the explorer finds that machine on the IPC × area Pareto frontier by
// search, and a second exploration over the same store simulates nothing.
func TestPaperMachineOnFrontier(t *testing.T) {
	space := Space{
		Base: core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Axes: []Axis{
			{Name: AxisArch, Values: []int{0, 1}},
			{Name: AxisClusters, Values: []int{4, 8}},
			{Name: AxisBuses, Values: []int{1, 2}},
			{Name: AxisIW, Values: []int{1, 2}},
		},
	}
	opts := Options{
		Space:    space,
		Strategy: &GridStrategy{},
		Evaluator: &SimEvaluator{
			Programs: []string{"gcc", "mcf", "swim", "art"},
			Insts:    40_000,
			Warmup:   8_000,
			Store:    results.NewMemoryLRU(1024),
		},
		Seed: 1,
	}
	rep, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluated != 16 || rep.SimsRun != 16*4 {
		t.Fatalf("evaluated %d candidates with %d simulations, want 16 and 64", rep.Evaluated, rep.SimsRun)
	}
	paper, err := space.Config(Candidate{Params: map[string]int{AxisArch: 0, AxisClusters: 8, AxisBuses: 1, AxisIW: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const want = "dse_Ring_8clus_1bus_2IW_1hop_16iq_48regs"
	if paper.Name != want {
		t.Fatalf("the paper machine is named %q, want %q", paper.Name, want)
	}
	var names []string
	for _, p := range rep.Frontier {
		names = append(names, p.Config)
	}
	if !slices.Contains(names, want) {
		t.Errorf("%s is not on the frontier %v", want, names)
	}

	warm, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SimsRun != 0 || warm.CacheHits != 16*4 {
		t.Errorf("second exploration: %d simulations, %d cache hits, want 0 and 64", warm.SimsRun, warm.CacheHits)
	}
}
