package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestPaperConfigsComplete(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 10 {
		t.Fatalf("%d configurations, want 10 (Table 3)", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
		names[c.Name] = true
	}
	for _, want := range []string{
		"Conv_4clus_1bus_2IW", "Ring_8clus_2bus_1IW", "Ring_8clus_1bus_2IW",
	} {
		if !names[want] {
			t.Errorf("missing configuration %s", want)
		}
	}
}

func TestConfigPairsAlign(t *testing.T) {
	for _, p := range ConfigPairs() {
		ring, conv := p[0], p[1]
		if !strings.HasPrefix(ring, "Ring_") || !strings.HasPrefix(conv, "Conv_") {
			t.Errorf("pair %v misordered", p)
		}
		if strings.TrimPrefix(ring, "Ring_") != strings.TrimPrefix(conv, "Conv_") {
			t.Errorf("pair %v compares different shapes", p)
		}
	}
}

func TestExecuteUnknownProgram(t *testing.T) {
	r := Execute(Request{Config: core.MustPaperConfig(core.ArchRing, 4, 2, 1), Workload: workload.Single("nope"), Insts: 100})
	if r.Err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestGridAndAggregates(t *testing.T) {
	cfgs := []core.Config{
		core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		core.MustPaperConfig(core.ArchConv, 4, 2, 1),
	}
	progs := []string{"gzip", "swim"}
	res, err := Grid(cfgs, progs, 15000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	for k, r := range res {
		st := r.Stats
		// Warm-up stops on a commit-width boundary, so the measured
		// window can undershoot by up to CommitWidth-1 instructions.
		if st.Committed < 15000-8 || st.Committed > 15000 {
			t.Errorf("%v committed %d", k, st.Committed)
		}
		if st.IPC() <= 0 {
			t.Errorf("%v IPC %v", k, st.IPC())
		}
	}
	ipc := func(s *core.Stats) float64 { return s.IPC() }
	all := Aggregate(res, cfgs[0].Name, SuiteAll, ipc)
	intA := Aggregate(res, cfgs[0].Name, SuiteInt, ipc)
	fpA := Aggregate(res, cfgs[0].Name, SuiteFP, ipc)
	if all <= 0 || intA <= 0 || fpA <= 0 {
		t.Fatal("aggregates not computed")
	}
	// With one INT and one FP program, AVERAGE = (INT + FP) / 2.
	if diff := all - (intA+fpA)/2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("average %v inconsistent with int %v fp %v", all, intA, fpA)
	}
	// Speedup of a configuration against itself is exactly zero.
	if sp := Speedup(res, cfgs[0].Name, cfgs[0].Name, SuiteAll); sp != 0 {
		t.Fatalf("self speedup %v", sp)
	}
}

func TestGridDeterministicAcrossRuns(t *testing.T) {
	cfg := []core.Config{core.MustPaperConfig(core.ArchRing, 4, 2, 1)}
	progs := []string{"mcf"}
	a, err := Grid(cfg, progs, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Grid(cfg, progs, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ka := Key{Config: cfg[0].Name, Workload: "mcf"}
	if !reflect.DeepEqual(a[ka].Stats, b[ka].Stats) {
		t.Fatal("parallel grid runs nondeterministic")
	}
}

// TestSpeedupDegenerateBaseline is the regression test for the
// zero-IPC guard: a baseline run that committed nothing must be reported
// as degenerate, not silently dropped from the mean.
func TestSpeedupDegenerateBaseline(t *testing.T) {
	cfgT := "Ring_test"
	cfgB := "Conv_test"
	mk := func(cycles, committed uint64) Run {
		var r Run
		r.Stats.Cycles = cycles
		r.Stats.Committed = committed
		return r
	}
	res := map[Key]Run{
		// gzip (INT): healthy pair, test IPC 2.0 vs base 1.0.
		{Config: cfgT, Workload: "gzip"}: mk(1000, 2000),
		{Config: cfgB, Workload: "gzip"}: mk(1000, 1000),
		// gcc (INT): baseline committed nothing — degenerate.
		{Config: cfgT, Workload: "gcc"}: mk(1000, 1500),
		{Config: cfgB, Workload: "gcc"}: mk(1000, 0),
	}
	sp, degenerate := SpeedupDetail(res, cfgT, cfgB, SuiteInt)
	if len(degenerate) != 1 || degenerate[0] != "gcc" {
		t.Fatalf("degenerate = %v, want [gcc]", degenerate)
	}
	if sp != 1.0 {
		t.Errorf("speedup over the healthy program = %v, want 1.0", sp)
	}
	// Speedup (the logging wrapper) must agree on the value.
	if got := Speedup(res, cfgT, cfgB, SuiteInt); got != sp {
		t.Errorf("Speedup = %v, SpeedupDetail = %v", got, sp)
	}
	// All baselines degenerate: zero speedup, every program marked.
	res[Key{Config: cfgB, Workload: "gzip"}] = mk(1000, 0)
	sp, degenerate = SpeedupDetail(res, cfgT, cfgB, SuiteInt)
	if sp != 0 || len(degenerate) != 2 {
		t.Errorf("all-degenerate: speedup %v, degenerate %v", sp, degenerate)
	}
}

// TestExpandEdgeCases pins grid-expansion semantics at the edges: empty
// axes expand to nothing, single-point axes to exactly the one request,
// and duplicate configuration names are preserved verbatim (Expand does
// not deduplicate — content-hash coalescing happens downstream).
func TestExpandEdgeCases(t *testing.T) {
	ring := core.MustPaperConfig(core.ArchRing, 4, 2, 1)
	conv := core.MustPaperConfig(core.ArchConv, 4, 2, 1)

	expand := func(cfgs []core.Config, progs []string, insts, warmup uint64) []Request {
		t.Helper()
		reqs, err := Expand(cfgs, progs, insts, warmup)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}

	// Empty axes: no configs, no programs, or both.
	if got := expand(nil, []string{"gcc"}, 100, 0); len(got) != 0 {
		t.Errorf("Expand(no configs) produced %d requests", len(got))
	}
	if got := expand([]core.Config{ring}, nil, 100, 0); len(got) != 0 {
		t.Errorf("Expand(no programs) produced %d requests", len(got))
	}
	if got := expand(nil, nil, 100, 0); len(got) != 0 {
		t.Errorf("Expand(nothing) produced %d requests", len(got))
	}

	// A malformed workload spec string is a parse error.
	if _, err := Expand([]core.Config{ring}, []string{"gcc@bad"}, 100, 0); err == nil {
		t.Error("Expand accepted a malformed workload spec")
	}

	// Single-point axes: exactly one request, fields threaded through.
	one := expand([]core.Config{ring}, []string{"gcc"}, 123, 45)
	if len(one) != 1 {
		t.Fatalf("single-point grid produced %d requests", len(one))
	}
	if one[0].Config.Name != ring.Name || one[0].Workload.Name() != "gcc" ||
		one[0].Insts != 123 || one[0].Warmup != 45 {
		t.Errorf("single-point request wrong: %+v", one[0])
	}

	// Configuration-major order over a 2×2 grid.
	grid := expand([]core.Config{ring, conv}, []string{"gcc", "swim"}, 100, 0)
	wantOrder := []Key{
		{ring.Name, "gcc"}, {ring.Name, "swim"},
		{conv.Name, "gcc"}, {conv.Name, "swim"},
	}
	for i, w := range wantOrder {
		if grid[i].Config.Name != w.Config || grid[i].Workload.Name() != w.Workload {
			t.Errorf("request %d is %s/%s, want %s/%s",
				i, grid[i].Config.Name, grid[i].Workload.Name(), w.Config, w.Workload)
		}
	}

	// Duplicate config names: Expand emits both verbatim — identical
	// requests that downstream content-hashing coalesces into one run.
	dup := expand([]core.Config{ring, ring}, []string{"gcc"}, 100, 0)
	if len(dup) != 2 {
		t.Fatalf("duplicate-config grid produced %d requests", len(dup))
	}
	if !reflect.DeepEqual(dup[0], dup[1]) {
		t.Errorf("duplicate configs expanded to different requests:\n%+v\n%+v", dup[0], dup[1])
	}
}

func TestSuiteString(t *testing.T) {
	if SuiteAll.String() != "AVERAGE" || SuiteInt.String() != "INT" || SuiteFP.String() != "FP" {
		t.Fatal("suite labels wrong")
	}
}

func TestSSAAndHop2Configs(t *testing.T) {
	for _, c := range SSAConfigs() {
		if c.Steer != core.SteerSimple || !strings.HasSuffix(c.Name, "+SSA") {
			t.Errorf("SSA config %s wrong", c.Name)
		}
	}
	h2 := Hop2Configs()
	if len(h2) != 4 {
		t.Fatalf("%d hop-2 configs, want 4", len(h2))
	}
	for _, c := range h2 {
		if c.HopLatency != 2 || !strings.Contains(c.Name, "2cyclehop") {
			t.Errorf("hop-2 config %s wrong", c.Name)
		}
	}
}

// TestFiguresRender checks every figure renders with the expected rows
// (over the grid shapes_test.go shares).
func TestFiguresRender(t *testing.T) {
	res := paperShapes(t)
	checks := []struct {
		name string
		out  string
		rows []string
	}{
		{"Fig6", res.Fig6(), []string{"Ring_4clus_1bus_2IW", "Ring_8clus_1bus_2IW", "%"}},
		{"Fig7", res.Fig7(), []string{"Conv_8clus_1bus_1IW", "Ring_8clus_1bus_1IW"}},
		{"Fig8", res.Fig8(), []string{"distance"}},
		{"Fig9", res.Fig9(), []string{"contention"}},
		{"Fig10", res.Fig10(), []string{"NREADY"}},
		{"Fig11", res.Fig11(), []string{"swim", "gzip", "clus7"}},
		{"Fig12", res.Fig12(), []string{"2bus_2cyclehop", "1bus_2cyclehop"}},
		{"Fig13", res.Fig13(), []string{"Ring_8clus_1bus_1IW+SSA"}},
		{"Fig14", res.Fig14(), []string{"Conv_8clus_1bus_2IW+SSA"}},
		{"SSADrop", res.SSADrop(), []string{"vs base"}},
	}
	for _, c := range checks {
		for _, row := range c.rows {
			if !strings.Contains(c.out, row) {
				t.Errorf("%s missing %q:\n%s", c.name, row, c.out)
			}
		}
	}
	if all := res.All(); len(all) < 1000 {
		t.Error("All() output suspiciously short")
	}
}

// BenchmarkSimulatorThroughput measures simulation speed in simulated
// instructions per wall-clock second on the production path — shared
// materialized trace, pooled machine — for the headline configuration.
// The workload is held for the loop's duration and materialized before the
// timer starts, as a grid that replays it across configurations would.
func BenchmarkSimulatorThroughput(b *testing.B) {
	req := Request{
		Config:   core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Workload: workload.Single("swim"),
		Insts:    50_000,
	}
	DefaultTraceCache.Hold(req.Workload)
	defer DefaultTraceCache.Release(req.Workload)
	if run := Execute(req); run.Err != nil {
		b.Fatal(run.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		run := Execute(req)
		if run.Err != nil {
			b.Fatal(run.Err)
		}
		total += run.Stats.Committed
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simulated-inst/s")
}

// BenchmarkKernelGrid measures the simulation kernel over a slice of the
// Figure-6 grid: the ten Table 3 configurations × gcc, mcf, swim and art
// at 40k measured + 10k warm-up instructions, one request at a time on
// one goroutine. Both architectures and so both steering policies (Ring's
// free-register tie-break, Conv's DCOUNT controller) are on the path. The
// workloads are held for the loop's duration and materialized before the
// timer starts, so the loop times warm-up and simulation only.
func BenchmarkKernelGrid(b *testing.B) {
	var reqs []Request
	var insts uint64
	for _, prog := range []string{"gcc", "mcf", "swim", "art"} {
		w := workload.Single(prog)
		DefaultTraceCache.Hold(w)
		defer DefaultTraceCache.Release(w)
		for _, cfg := range PaperConfigs() {
			req := Request{Config: cfg, Workload: w, Insts: 40_000, Warmup: 10_000}
			reqs = append(reqs, req)
			for _, n := range StreamBudgets(req.Workload, req.Insts, req.Warmup) {
				insts += n
			}
		}
		// Materialize the workload outside the timer.
		if run := Execute(reqs[len(reqs)-1]); run.Err != nil {
			b.Fatal(run.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if run := Execute(req); run.Err != nil {
				b.Fatal(run.Err)
			}
		}
	}
	total := float64(insts) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/inst")
	b.ReportMetric(total/b.Elapsed().Seconds(), "simulated-inst/s")
}
