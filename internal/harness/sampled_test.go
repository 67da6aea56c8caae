package harness

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// errorAccountingWorkloads are the three workload shapes the sampled
// error gate covers: a fixed profile, a parameterized synthetic scenario,
// and a two-stream mix.
var errorAccountingWorkloads = []string{
	"gcc",
	"synth(ilp=3,br=0.18,ws=64K,ld=0.24,st=0.12)",
	"gcc+swim",
}

// TestSampledErrorAccounting is the error-accounting regression: for
// every paper configuration × the three workload shapes, the sampled IPC
// estimate must fall within its own reported confidence interval of the
// exact IPC. A sampled result whose error model undersells its error is
// worse than a slow one.
func TestSampledErrorAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		insts  = 60_000
		warmup = 8_000
	)
	sp := Sampling{Interval: 12_000, Window: 3_000, Warm: 1_000}
	for _, cfg := range PaperConfigs() {
		for _, wl := range errorAccountingWorkloads {
			spec, err := workload.ParseSpec(wl)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", wl, err)
			}
			req := Request{Config: cfg, Workload: spec, Insts: insts, Warmup: warmup}
			exact := Execute(req)
			if exact.Err != nil {
				t.Fatalf("%s/%s exact: %v", cfg.Name, wl, exact.Err)
			}
			req.Sampling = sp
			sampled := Execute(req)
			if sampled.Err != nil {
				t.Fatalf("%s/%s sampled: %v", cfg.Name, wl, sampled.Err)
			}
			if sampled.Sampled == nil {
				t.Fatalf("%s/%s: sampled run missing SampledInfo", cfg.Name, wl)
			}
			if sampled.Sampled.Windows == 0 || sampled.Sampled.FFInsts == 0 {
				t.Fatalf("%s/%s: implausible accounting %+v", cfg.Name, wl, sampled.Sampled)
			}
			diff := math.Abs(sampled.Stats.IPC() - exact.Stats.IPC())
			if ci := sampled.Sampled.IPCCI; diff > ci {
				t.Errorf("%s/%s: sampled IPC %.4f vs exact %.4f: |diff| %.4f exceeds reported CI %.4f",
					cfg.Name, wl, sampled.Stats.IPC(), exact.Stats.IPC(), diff, ci)
			}
		}
	}
}

// TestSampledDeterminism pins that a sampled run is a pure function of
// its request: same request, same extrapolated stats and error bars.
func TestSampledDeterminism(t *testing.T) {
	cfg := PaperConfigs()[0]
	spec, err := workload.ParseSpec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Config: cfg, Workload: spec, Insts: 40_000, Warmup: 4_000,
		Sampling: Sampling{Interval: 8_000, Window: 2_000, Warm: 500}}
	a, b := Execute(req), Execute(req)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) || *a.Sampled != *b.Sampled {
		t.Fatalf("sampled run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestParseFidelity covers the fidelity knob grammar.
func TestParseFidelity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Sampling
		ok   bool
	}{
		{"", Sampling{}, true},
		{"exact", Sampling{}, true},
		{"sampled", DefaultSampling, true},
		{"sampled(10000,2000,500)", Sampling{Interval: 10_000, Window: 2_000, Warm: 500}, true},
		{"sampled(1000,2000,500)", Sampling{}, false}, // window+warm ≥ interval
		{"sampled(1000,0,0)", Sampling{}, false},      // zero window
		{"fast", Sampling{}, false},
	} {
		got, err := ParseFidelity(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseFidelity(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseFidelity(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, sp := range []Sampling{{}, DefaultSampling, {Interval: 64, Window: 16, Warm: 8}} {
		rt, err := ParseFidelity(sp.String())
		if err != nil || rt != sp {
			t.Errorf("round-trip %v: got %v, err %v", sp, rt, err)
		}
	}
}

// FuzzParseFidelity: every HTTP submission's fidelity field reaches
// ParseFidelity. Whatever it accepts spells back to itself —
// ParseFidelity(s.String()) == s — and is a sampling whose warm-up and
// window fit inside the interval without wrapping.
func FuzzParseFidelity(f *testing.F) {
	for _, seed := range []string{
		"", "exact", "sampled", " sampled ", "sampled(12000,1000,400)",
		"sampled(1000,2000,500)", "sampled(1000,0,0)", "sampled(5,2,18446744073709551615)",
		"sampled(+7,1,1)", "sampled(9,1,1)trailing", "fast",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		s, err := ParseFidelity(v)
		if err != nil {
			return
		}
		if back, err := ParseFidelity(s.String()); err != nil || back != s {
			t.Fatalf("ParseFidelity(%q) = %+v spells %q, which parses to %+v, %v", v, s, s.String(), back, err)
		}
		if s.Enabled() && (s.Window == 0 || s.Warm >= s.Interval || s.Window >= s.Interval-s.Warm) {
			t.Fatalf("ParseFidelity(%q) accepted %+v: warm-up and window do not fit the interval", v, s)
		}
	})
}
