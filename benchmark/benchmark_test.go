package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/results"
)

func TestPickTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending, so the picker must sort
		}
		return v
	}
	for _, tc := range []struct {
		n       int
		p50     float64
		highPct float64
		high    float64
	}{
		{5, 3, 50, 3},                 // too few for any tail percentile
		{99, 50, 50, 50},              // p90 would have 9.9 samples beyond it
		{100, 50.5, 90, 90},           // exactly ten beyond p90
		{1000, 500.5, 99, 990},        // ten beyond p99, one beyond p99.9
		{20000, 10000.5, 99.9, 19980}, // twenty beyond p99.9
	} {
		got := pickTail(seq(tc.n))
		if got.N != tc.n || got.P50 != tc.p50 || got.HighPct != tc.highPct || got.High != tc.high || got.Max != float64(tc.n) {
			t.Errorf("pickTail(1..%d) = %+v, want p50 %v, p%v = %v, max %d", tc.n, got, tc.p50, tc.highPct, tc.high, tc.n)
		}
	}
	if got := pickTail(nil); got.N != 0 || got.P50 != 0 {
		t.Errorf("pickTail(nil) = %+v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", StartNS: 0, EndNS: 100},                // 1
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 1},        // 2
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 1},        // 3: overlaps a by 10
		{Name: "c", StartNS: 90, EndNS: 130, Parent: 1},       // 4: sticks out of root by 30
		{Name: "inner", StartNS: 15, EndNS: 20, Parent: 2},    // 5
		{Name: "nested", StartNS: 35, EndNS: 38, Parent: 1},   // 6: wholly inside a∪b
		{Name: "orphan", StartNS: 200, EndNS: 250, Parent: 0}, // 7
	}
	self := selfTimes(spans)
	want := []int64{
		100 - 50 - 10, // root minus [10,60] minus [90,100]
		30 - 5,        // a minus inner
		30, 40, 5, 3, 50,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	tot := totals(spans)
	if tot.dur["root"] != 100e-9 || tot.self["root"] != 40e-9 || tot.count["root"] != 1 {
		t.Errorf("totals: root dur %v self %v count %d", tot.dur["root"], tot.self["root"], tot.count["root"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.start("x", "", 0)) // must not panic: untraced passes run this
}

func TestVerdict(t *testing.T) {
	s := func(med, lo, hi float64) summary { return summary{Median: med, Min: lo, Max: hi} }
	for _, tc := range []struct {
		name         string
		a, b         summary
		better       string
		bound, floor float64
		want         string
	}{
		{"lower-better, within bound", s(10, 9.9, 10.1), s(10.5, 10.4, 10.6), "lower", 0.1, 0, "same"},
		{"lower-better, slower", s(10, 9.9, 10.1), s(11.5, 11.4, 11.6), "lower", 0.1, 0, "worse"},
		{"lower-better, faster", s(10, 9.9, 10.1), s(8, 7.9, 8.1), "lower", 0.1, 0, "better"},
		{"higher-better, rate fell", s(100, 99, 101), s(80, 79, 81), "higher", 0.1, 0, "worse"},
		{"higher-better, rate rose", s(100, 99, 101), s(120, 119, 121), "higher", 0.1, 0, "better"},
		{"spread of a wider than bound", s(10, 9, 11.5), s(12, 11.9, 12.1), "lower", 0.1, 0, "unresolved"},
		{"spread of b wider than bound", s(10, 9.9, 10.1), s(12, 10, 13), "lower", 0.1, 0, "unresolved"},
		{"3 ms of set-up doubling is under the floor", s(0.003, 0.0028, 0.0031), s(0.006, 0.004, 0.009), "lower", 0.25, 0.1, "same"},
		{"set-up growing past the floor", s(0.003, 0.0028, 0.0031), s(0.2, 0.19, 0.21), "lower", 0.25, 0.1, "worse"},
		{"exact metric repeats", s(8.35, 8.35, 8.35), s(8.35, 8.35, 8.35), "lower", 0, 0, "same"},
		{"exact metric moved in the last digits", s(8.35, 8.35, 8.35), s(8.3501, 8.3501, 8.3501), "lower", 0, 0, "worse"},
		{"exact metric that did not repeat within a set", s(8.35, 8.35, 8.36), s(8.35, 8.35, 8.35), "lower", 0, 0, "unresolved"},
		{"no reference frontier on either side", s(-1, -1, -1), s(-1, -1, -1), "higher", 0, 0, "same"},
		{"zero baseline, zero now", s(0, 0, 0), s(0, 0, 0), "lower", 0.1, 0, "same"},
		{"zero baseline, errors now", s(0, 0, 0), s(1, 1, 1), "lower", 0.1, 0, "worse"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, tc.bound, tc.floor); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// mk is a set whose every metric reads 1, but for the rate on every
	// workload and one gated metric.
	mk := func(rate float64, failed int, gatedName string, gatedValue float64) *setResult {
		set := &setResult{Seconds: defaultSeconds, Scale: 1, Workloads: map[string]*setWorkload{}}
		set.Host.GOMAXPROCS = 2
		for _, w := range workloadNames {
			sw := &setWorkload{Attempted: 100, Failed: failed, EndToEnd: map[string]summary{}, Gated: map[string]summary{}}
			for name := range endToEndUnits {
				sw.EndToEnd[name] = summary{Median: 1, Min: 1, Max: 1}
			}
			sw.EndToEnd[mRate] = summary{Median: rate, Min: rate, Max: rate}
			for _, g := range gated {
				if g.workload == w {
					sw.Gated[g.name] = summary{Median: 1, Min: 1, Max: 1}
					if g.name == gatedName {
						sw.Gated[g.name] = summary{Median: gatedValue, Min: gatedValue, Max: gatedValue}
					}
				}
			}
			set.Workloads[w] = sw
		}
		return set
	}
	base := mk(100, 0, "", 0)
	var out bytes.Buffer
	if ok, err := compareSets(&out, d, base, mk(99, 0, "", 0)); err != nil || !ok {
		t.Errorf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, _ := compareSets(&out, d, base, mk(50, 0, "", 0)); ok {
		t.Error("a halved rate must fail the comparison")
	}
	if ok, _ := compareSets(&out, d, base, mk(100, 1, "", 0)); ok {
		t.Error("more failed operations must fail the comparison")
	}
	// The hot path is a quarter of service_sweep's pass, so its latency
	// can double inside sim_inst_per_s's bound; the gated row catches it.
	if ok, _ := compareSets(&out, d, base, mk(100, 0, "server.hot_submit_p50_ms", 2)); ok {
		t.Error("a doubled hot-submit latency must fail the comparison")
	}
	if ok, _ := compareSets(&out, d, base, mk(100, 0, "dse.effective_inst_per_s", 0.5)); ok {
		t.Error("a funnel taking twice as long over the same grid must fail the comparison")
	}
	if ok, _ := compareSets(&out, d, base, mk(100, 0, "dse.twin_mape_pct", 1.001)); ok {
		t.Error("a less accurate twin must fail the comparison, however slightly")
	}
	if ok, _ := compareSets(&out, d, base, mk(100, 0, "dse.frontier_recall", 0.9)); ok {
		t.Error("a funnel that finds less of the frontier must fail the comparison")
	}
	other := mk(100, 0, "", 0)
	other.Seed = 1
	if _, err := compareSets(&out, d, base, other); err == nil {
		t.Error("sets at different seeds must refuse to compare")
	}
	other = mk(100, 0, "", 0)
	other.Host.GOMAXPROCS = 1
	if _, err := compareSets(&out, d, base, other); err == nil {
		t.Error("sets at different GOMAXPROCS must refuse to compare")
	}
}

// TestDeclarationMatchesCode holds BENCHMARK.json and the code to each
// other: every name declared is emitted and the other way round, within
// the contract's limits.
func TestDeclarationMatchesCode(t *testing.T) {
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(d.Workloads))
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, declared []declaredMetric, units map[string]string, limit int, bounded bool) {
		t.Helper()
		if len(declared) < 1 || len(declared) > limit {
			t.Errorf("%d %s metrics, want 1 to %d", len(declared), kind, limit)
		}
		if len(declared) != len(units) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the code emits %d", len(declared), kind, len(units))
		}
		for _, m := range declared {
			name(m.Name)
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %s is declared but never emitted", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q declared, %q emitted", kind, m.Name, m.Unit, unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %s: bad unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			} else if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v is outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end-to-end", d.EndToEnd, endToEndUnits, 16, true)
	check("per-layer", d.PerLayer, perLayerUnits, 128, false)

	var setup *declaredMetric
	for i := range d.EndToEnd {
		if d.EndToEnd[i].Name == mSetup {
			setup = &d.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better; got %+v", setup)
	} else {
		for _, m := range d.EndToEnd {
			if *m.Bound > *setup.Bound {
				t.Errorf("setup_s must have the largest bound; %s has %v", m.Name, *m.Bound)
			}
		}
	}
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", d.Paths)
	}
	if strings.Join(d.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", d.Command)
	}
}

// TestReadmeStatesTheBounds ties the bounds the README quotes to the ones
// `compare` applies: BENCHMARK.json's for the end-to-end metrics, the
// gated list's for the rest.
func TestReadmeStatesTheBounds(t *testing.T) {
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := func(rowStart string) (pct int, ok bool) {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(rowStart) + `.*?\| (\d+) % \|`).FindSubmatch(readme)
		if m == nil {
			return 0, false
		}
		pct, err := strconv.Atoi(string(m[1]))
		return pct, err == nil
	}
	declared := map[string]bool{}
	for _, m := range d.EndToEnd {
		if pct, ok := quoted("| `" + m.Name + "` "); !ok || pct != int(math.Round(100**m.Bound)) {
			t.Errorf("%s: README quotes a bound of %d %% (found %v), BENCHMARK.json says %v", m.Name, pct, ok, *m.Bound)
		}
	}
	for _, m := range d.PerLayer {
		declared[m.Name] = true
	}
	for _, g := range gated {
		if !declared[g.name] || !slices.Contains(workloadNames, g.workload) {
			t.Errorf("gated metric %s on %s is not a declared per-layer metric of a workload", g.name, g.workload)
		}
		if pct, ok := quoted("| `" + g.name + "` | `" + g.workload + "` "); !ok || pct != int(math.Round(100*g.bound)) {
			t.Errorf("%s: README quotes a bound of %d %% (found %v), the code applies %v", g.name, pct, ok, g.bound)
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	sz := sizesAt(1)
	a, err := fig6Requests(0, sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 260 {
		t.Fatalf("%d fig6 requests, want 260", len(a))
	}
	for _, r := range a {
		if strings.Contains(r.Workload.Name(), "@") {
			t.Fatalf("seed 0 must use the bare program names the goldens pin, got %q", r.Workload.Name())
		}
	}
	b, _ := fig6Requests(7, sz)
	b2, _ := fig6Requests(7, sz)
	for i := range b {
		if b[i].Workload.Name() != b2[i].Workload.Name() {
			t.Fatal("the same seed must give the same inputs")
		}
		if b[i].Workload.Name() == a[i].Workload.Name() {
			t.Fatalf("seed 7 reuses seed 0's stream %q", a[i].Workload.Name())
		}
	}

	mixes, err := mixRequests(0, sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 2*76 {
		t.Errorf("%d mix requests, want 152", len(mixes))
	}
	streams := map[string]int{}
	for _, r := range mixes[:len(mixes)/2] { // one configuration's worth
		if err := r.Workload.Validate(); err != nil {
			t.Fatalf("%s: %v", r.Workload.Name(), err)
		}
		for _, s := range r.Workload.Streams {
			streams[fmt.Sprint(s.Program, "@", s.Seed)]++
		}
	}
	if len(streams) != 40+2*24+4*12 {
		t.Errorf("%d distinct streams, want 136: no trace may be shared between mixes", len(streams))
	}
	if got := requestedInsts(mixes); got != 2*(136*sz.mixInsts+76*sz.mixWarm) {
		t.Errorf("requestedInsts = %d", got)
	}

	if o := hotOrder(3, 260, 8000); len(o) != 8000 || o[0] == 0 && o[1] == 1 && o[2] == 2 {
		t.Error("hot order must be 8000 shuffled draws")
	}
	small := sizesAt(0.1)
	if small.gridInsts != sz.gridInsts/10 || small.hotSubmits != sz.hotSubmits/10 || small.mixes != [3]int{4, 2, 1} {
		t.Errorf("scale 0.1 must divide instruction and request counts by ten: %+v", small)
	}
}

func TestRecallAndDigest(t *testing.T) {
	want := []frontierPoint{{"a", 1.0, 10}, {"b", 2.0, 20}}
	got := []frontierPoint{{"a2", 0.995, 10}, {"c", 1.5, 25}}
	if r := recall(want, got); r != 0.5 {
		t.Errorf("recall = %v, want 0.5 (an equal-area twin within tolerance counts, a costlier slower point does not)", r)
	}
	if r := recall(want, want); r != 1 {
		t.Errorf("recall of itself = %v", r)
	}
	r1, r2 := results.Result{Key: "k1", Config: "x"}, results.Result{Key: "k2", Config: "y"}
	d1, _ := digest([]results.Result{r1, r2})
	d2, _ := digest([]results.Result{r2, r1})
	r2.Stats.Cycles = 1
	d3, _ := digest([]results.Result{r1, r2})
	if d1 != d2 || d1 == d3 {
		t.Errorf("digest must ignore order and notice content: %s %s %s", d1, d2, d3)
	}
	layer := map[string]float64{}
	simulatedLayer([]results.Result{r2, r2}, layer)
	if layer["core.sim_cycles"] != 2 || math.IsNaN(layer["core.sim_ipc"]) {
		t.Errorf("simulatedLayer: %v", layer)
	}
	for name := range layer {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("simulatedLayer emits undeclared metric %s", name)
		}
	}
}
