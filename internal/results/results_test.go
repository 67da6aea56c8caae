package results

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// goldenRequest is the fixed request the golden-hash test pins.
func goldenRequest() harness.Request {
	return harness.Request{
		Config:   core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		Workload: workload.Single("gcc"),
		Insts:    300_000,
		Warmup:   50_000,
	}
}

// goldenKey pins the content hash of goldenRequest under SchemaVersion 1.
// If this test fails, the wire schema changed: every cached result in
// every deployed store is invalidated. That may be intentional (then
// update this constant and bump SchemaVersion) but must never happen by
// accident.
const goldenKey = "bf4f0f1320c37c84e23ae71a8f1628bc9b4881934dc7c3445d9d6644cf252e3b"

func TestGoldenContentHash(t *testing.T) {
	key, err := NewRequest(goldenRequest()).Key()
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenKey {
		t.Errorf("content hash of the golden request changed:\n got %s\nwant %s\n"+
			"(schema change — if intentional, bump SchemaVersion and repin)", key, goldenKey)
	}
}

func TestCanonicalIsSortedAndStable(t *testing.T) {
	req := NewRequest(goldenRequest())
	b1, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("canonical encoding differs between calls")
	}
	// Keys must be sorted at the top level: "config" < "insts" <
	// "program" < "schema" < "warmup".
	var order []int
	for _, k := range []string{`"config"`, `"insts"`, `"program"`, `"schema"`, `"warmup"`} {
		i := strings.Index(string(b1), k)
		if i < 0 {
			t.Fatalf("canonical encoding missing %s: %s", k, b1)
		}
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Errorf("canonical keys not sorted: %s", b1)
		}
	}
	if strings.ContainsAny(string(b1), " \n\t") {
		t.Errorf("canonical encoding contains whitespace: %s", b1)
	}
}

func TestKeyIgnoresJSONFieldOrder(t *testing.T) {
	// Round-tripping through a decoded map, re-emitted with sorted keys
	// (the oracle), must not change the canonical bytes.
	req := NewRequest(goldenRequest())
	direct, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := oracleCanonicalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(direct) != string(reordered) {
		t.Errorf("canonicalization depends on input field order:\n%s\n%s", direct, reordered)
	}
}

func TestKeySeparatesRequests(t *testing.T) {
	base := goldenRequest()
	baseKey, err := NewRequest(base).Key()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]harness.Request{}
	m := base
	m.Workload = workload.Single("mcf")
	mutations["program"] = m
	m = base
	m.Workload = workload.Spec{Streams: []workload.StreamSpec{{Program: "gcc", Seed: 7}}}
	mutations["stream seed"] = m
	m = base
	m.Workload = workload.Spec{Streams: []workload.StreamSpec{{Program: "gcc"}, {Program: "swim"}}}
	mutations["mix"] = m
	m = base
	m.Workload = workload.Spec{Streams: []workload.StreamSpec{{Program: "swim"}, {Program: "gcc"}}}
	mutations["mix order"] = m
	m = base
	m.Insts++
	mutations["insts"] = m
	m = base
	m.Warmup++
	mutations["warmup"] = m
	m = base
	m.Config = core.MustPaperConfig(core.ArchConv, 8, 2, 1)
	mutations["config"] = m
	m = base
	m.Config.HopLatency = 2
	mutations["config field"] = m
	for name, mut := range mutations {
		k, err := NewRequest(mut).Key()
		if err != nil {
			t.Fatal(err)
		}
		if k == baseKey {
			t.Errorf("changing %s did not change the content hash", name)
		}
	}
}

func TestRoundTripThroughWire(t *testing.T) {
	req := NewRequest(goldenRequest())
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	k1, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := back.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("wire round trip changed the content hash")
	}
	if back.Harness().Config.Name != req.Config.Name {
		t.Error("wire round trip lost the configuration")
	}
}

func TestFromRun(t *testing.T) {
	req := goldenRequest()
	run := harness.Run{Config: req.Config, Workload: "gcc"}
	run.Stats.Cycles = 100
	run.Stats.Committed = 250
	rec, err := FromRun(req, run)
	if err != nil {
		t.Fatal(err)
	}
	wantKey, _ := NewRequest(req).Key()
	if rec.Key != wantKey {
		t.Errorf("record key %s != request key %s", rec.Key, wantKey)
	}
	if rec.Config != req.Config.Name || rec.Program != "gcc" {
		t.Errorf("record identity wrong: %+v", rec)
	}
	if rec.Failed() {
		t.Error("successful run recorded as failed")
	}
	if got := rec.Stats.IPC(); got != 2.5 {
		t.Errorf("stats lost in conversion: IPC=%v", got)
	}

	run.Err = errors.New("boom")
	rec, err = FromRun(req, run)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Failed() || rec.Err != "boom" {
		t.Errorf("failed run not recorded: %+v", rec)
	}
}
