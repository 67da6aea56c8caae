package dse

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
)

// goldenRequest is a fully populated exploration request as the
// coordinator's previous request type encoded it (captured at 4a81e48,
// before the type moved into dse). An exploration manifest stores these
// bytes and replays them after a restart.
const goldenRequest = `{"base":{"paper":{"arch":"conv","clusters":4,"iw":1,"buses":2,"hop":2,"steer":"ssa"}},"axes":[{"name":"arch","values":[0,1]},{"name":"buses","values":[1,2]}],"strategy":"random","budget":6,"samples":5,"seed":42,"programs":["gcc","gcc+swim","synth(ilp=8,ws=4M)"],"insts":20000,"warmup":4000,"twin":"auto","fidelity":"sampled(4000,1000,500)"}`

// TestRequestWireFormIsStable pins the manifest encoding of a request
// with every field set, its base given as a paper spec: it marshals to
// the golden bytes, and the golden bytes decode back to it and resolve.
func TestRequestWireFormIsStable(t *testing.T) {
	req := Request{
		Base:     &results.ConfigSpec{Paper: &results.PaperSpec{Arch: "conv", Clusters: 4, IW: 1, Buses: 2, Hop: 2, Steer: "ssa"}},
		Axes:     []Axis{{Name: AxisArch, Values: []int{0, 1}}, {Name: AxisBuses, Values: []int{1, 2}}},
		Strategy: "random",
		Budget:   6,
		Samples:  5,
		Seed:     42,
		Programs: []string{"gcc", "gcc+swim", "synth(ilp=8,ws=4M)"},
		Insts:    20000,
		Warmup:   4000,
		Twin:     "auto",
		Fidelity: "sampled(4000,1000,500)",
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != goldenRequest {
		t.Fatalf("request encoding changed:\n got %s\nwant %s", raw, goldenRequest)
	}
	var back Request
	if err := json.Unmarshal([]byte(goldenRequest), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("golden bytes decode to %+v, want %+v", back, req)
	}

	opts, err := back.Options()
	if err != nil {
		t.Fatal(err)
	}
	base := core.MustPaperConfig(core.ArchConv, 4, 1, 2).WithHopLatency(2).WithSteer(core.SteerSimple)
	if !reflect.DeepEqual(opts.Space.Base, base) {
		t.Errorf("base resolved to %s, want %s", opts.Space.Base.Name, base.Name)
	}
	if opts.Strategy.Name() != "random" || opts.Budget != 6 || opts.Seed != 42 || opts.Space.Size() != 4 {
		t.Errorf("resolved strategy %s, budget %d, seed %d, space %d", opts.Strategy.Name(), opts.Budget, opts.Seed, opts.Space.Size())
	}
	if want := (harness.Sampling{Interval: 4000, Window: 1000, Warm: 500}); opts.Sampling != want {
		t.Errorf("sampling %+v, want %+v", opts.Sampling, want)
	}
	twin := TwinOptions{Mode: TwinAuto, Programs: []string{"gcc", "gcc+swim", "synth(ilp=8,ws=4M)"}, Insts: 20000, Warmup: 4000}
	if opts.Twin == nil || !reflect.DeepEqual(*opts.Twin, twin) {
		t.Errorf("twin options %+v, want %+v", opts.Twin, twin)
	}
	if opts.Evaluator != nil || opts.Concurrency != 0 || opts.Observer != nil {
		t.Error("Options set a field that belongs to the caller")
	}
}

// TestRequestOptionsRefuses lists the requests Options refuses before
// anything is simulated.
func TestRequestOptionsRefuses(t *testing.T) {
	axes := []Axis{{Name: AxisClusters, Values: []int{4, 8}}}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"no axes", Request{Insts: 1000}},
		{"bad base", Request{Base: &results.ConfigSpec{Paper: &results.PaperSpec{Arch: "mesh", Clusters: 8, IW: 2, Buses: 1}}, Axes: axes, Insts: 1000}},
		{"base both ways", Request{Base: &results.ConfigSpec{Config: &core.Config{}, Paper: &results.PaperSpec{}}, Axes: axes, Insts: 1000}},
		{"unknown strategy", Request{Axes: axes, Strategy: "anneal", Insts: 1000}},
		{"bad twin", Request{Axes: axes, Twin: "fast", Insts: 1000}},
		{"twin on, random", Request{Axes: axes, Strategy: "random", Twin: "on", Insts: 1000}},
		{"bad fidelity", Request{Axes: axes, Fidelity: "fast", Insts: 1000}},
		{"unknown program", Request{Axes: axes, Programs: []string{"gcc", "nosuch"}, Insts: 1000}},
		{"zero insts", Request{Axes: axes}},
	} {
		if _, err := tc.req.Options(); err == nil {
			t.Errorf("%s: Options accepted %+v", tc.name, tc.req)
		}
	}
}
