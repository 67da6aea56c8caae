package workload

// Synthetic specs: a spec string names a workload by its parameters,
//
//	synth(ilp=8,br=0.12,ws=4M,ld=0.28,st=0.12,stride=0.6,phases=3)
//
// Every knob is optional and defaults to a neutral integer-code-like
// value. ParseSynthParams/SynthParams.Canonical round-trip the grammar
// with parameter order and number formatting normalized, so equal
// workloads have equal canonical bytes — which is what makes the specs
// content-addressable: equal bytes ⇒ equal trace-cache keys and equal
// result-store keys, fleet-wide.
//
// Named distribution families denote whole populations: "synth-random",
// "synth-int" and "synth-fp" sample a full parameter set from
// meta-distributions keyed by the stream seed, so
// "synth-random@1+synth-random@2" is a reproducible 2-stream mix drawn
// from the population — the building block of the multi-programmed
// fairness study.
//
// phases>1 makes the workload piecewise: the stream cycles through
// `phases` deterministic variations of the base parameters (working set,
// ILP, stride and branch behaviour all shift, and each phase lives in
// its own address region), switching every plen instructions — program
// behaviour the 26 static profiles cannot express.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MaxSynthPhases bounds the piecewise structure of one spec. It equals
// MaxStreams: past that point phase churn, not phase identity,
// dominates, and the cap keeps phased address-space offsets well inside
// one stream's 2^44-byte slot.
const MaxSynthPhases = MaxStreams

// SynthParams is one synthetic workload's parameter set. The zero value
// is not meaningful; start from SynthDefaults().
type SynthParams struct {
	// ILP is the mean register dependence-chain distance in instructions
	// (Profile.ChainDistMean). Higher = more instruction-level
	// parallelism.
	ILP float64
	// Br is the fraction of conditional branches whose outcome is close
	// to random (Profile.UnbiasedBranchFrac).
	Br float64
	// Bf is the conditional-branch share of the instruction mix.
	Bf float64
	// Ld and St are the load and store shares of the instruction mix.
	Ld, St float64
	// FP is the floating-point share of the computational work; 0 is a
	// pure integer code, 1 a pure FP kernel.
	FP float64
	// WS is the data working-set size in bytes.
	WS uint64
	// Stride is the fraction of static memory instructions that access
	// memory with a regular stride (the rest are uniform random within
	// the working set).
	Stride float64
	// Phases is the number of piecewise program phases (1 = stationary).
	Phases int
	// PLen is the phase segment length in instructions; the stream
	// switches phase every PLen instructions when Phases > 1.
	PLen uint64
}

// SynthDefaults returns the neutral parameter set every omitted knob falls
// back to: a moderately branchy, moderately strided integer code.
func SynthDefaults() SynthParams {
	return SynthParams{
		ILP:    2.5,
		Br:     0.2,
		Bf:     0.12,
		Ld:     0.25,
		St:     0.08,
		FP:     0,
		WS:     1 << 20,
		Stride: 0.5,
		Phases: 1,
		PLen:   50_000,
	}
}

// knob describes one grammar parameter: its canonical position is its
// index in knobs (the order the canonical form renders them in).
type knob struct {
	name string
	set  func(*SynthParams, string) error
	// render returns the canonical value string and whether the value
	// differs from the default (only differing knobs are rendered).
	render func(*SynthParams, *SynthParams) (string, bool)
}

// fractionKnob builds a knob for a [0,1]-ranged float field.
func fractionKnob(name string, f func(*SynthParams) *float64, lo, hi float64) knob {
	return knob{
		name: name,
		set: func(p *SynthParams, v string) error {
			x, err := parseFloat(name, v)
			if err != nil {
				return err
			}
			if x < lo || x > hi {
				return fmt.Errorf("synth: %s=%s out of range [%s, %s]", name, v, formatFloat(lo), formatFloat(hi))
			}
			*f(p) = x
			return nil
		},
		render: func(p, d *SynthParams) (string, bool) {
			return formatFloat(*f(p)), *f(p) != *f(d)
		},
	}
}

// knobs lists every grammar parameter in canonical order. The order is
// part of the wire format: canonical specs render differing knobs in
// exactly this sequence.
var knobs = []knob{
	{
		name: "ilp",
		set: func(p *SynthParams, v string) error {
			x, err := parseFloat("ilp", v)
			if err != nil {
				return err
			}
			if x <= 0 || x > 64 {
				return fmt.Errorf("synth: ilp=%s out of range (0, 64]", v)
			}
			p.ILP = x
			return nil
		},
		render: func(p, d *SynthParams) (string, bool) { return formatFloat(p.ILP), p.ILP != d.ILP },
	},
	fractionKnob("br", func(p *SynthParams) *float64 { return &p.Br }, 0, 1),
	{
		name: "ws",
		set: func(p *SynthParams, v string) error {
			x, err := parseBytes(v)
			if err != nil {
				return fmt.Errorf("synth: ws=%s: %w", v, err)
			}
			if x < 1024 || x > 1<<30 {
				return fmt.Errorf("synth: ws=%s out of range [1K, 1G]", v)
			}
			p.WS = x
			return nil
		},
		render: func(p, d *SynthParams) (string, bool) { return formatBytes(p.WS), p.WS != d.WS },
	},
	fractionKnob("ld", func(p *SynthParams) *float64 { return &p.Ld }, 0, 0.6),
	fractionKnob("st", func(p *SynthParams) *float64 { return &p.St }, 0, 0.4),
	fractionKnob("stride", func(p *SynthParams) *float64 { return &p.Stride }, 0, 1),
	{
		name: "phases",
		set: func(p *SynthParams, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("synth: phases=%s is not an integer", v)
			}
			if n < 1 || n > MaxSynthPhases {
				return fmt.Errorf("synth: phases=%d out of range [1, %d]", n, MaxSynthPhases)
			}
			p.Phases = n
			return nil
		},
		render: func(p, d *SynthParams) (string, bool) {
			return strconv.Itoa(p.Phases), p.Phases != d.Phases
		},
	},
	fractionKnob("bf", func(p *SynthParams) *float64 { return &p.Bf }, 0, 0.4),
	fractionKnob("fp", func(p *SynthParams) *float64 { return &p.FP }, 0, 1),
	{
		name: "plen",
		set: func(p *SynthParams, v string) error {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("synth: plen=%s is not a positive integer", v)
			}
			if n < 1000 || n > 1_000_000_000 {
				return fmt.Errorf("synth: plen=%d out of range [1000, 1000000000]", n)
			}
			p.PLen = n
			return nil
		},
		render: func(p, d *SynthParams) (string, bool) {
			return strconv.FormatUint(p.PLen, 10), p.PLen != d.PLen
		},
	},
}

// knobNames returns the known parameter names in canonical order (for
// error messages).
func knobNames() string {
	names := make([]string, len(knobs))
	for i, k := range knobs {
		names[i] = k.name
	}
	return strings.Join(names, ", ")
}

// parseFloat parses a float knob value, rejecting NaN and infinities
// (they parse fine but poison every downstream distribution).
func parseFloat(name, v string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("synth: %s=%s is not a number", name, v)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("synth: %s=%s is not finite", name, v)
	}
	return x, nil
}

// formatFloat renders a float canonically: shortest representation that
// round-trips. The parameter ranges keep the exponent form out of reach
// of the spec separators ('+' never appears below 1e21).
func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// parseBytes parses a byte count with an optional binary suffix:
// "65536", "64K", "4M", "1G".
func parseBytes(v string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(v, "K"), strings.HasSuffix(v, "k"):
		mult, v = 1<<10, v[:len(v)-1]
	case strings.HasSuffix(v, "M"), strings.HasSuffix(v, "m"):
		mult, v = 1<<20, v[:len(v)-1]
	case strings.HasSuffix(v, "G"), strings.HasSuffix(v, "g"):
		mult, v = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a byte count (want e.g. 65536, 64K, 4M, 1G)")
	}
	if n == 0 {
		return 0, fmt.Errorf("zero working set")
	}
	if n > math.MaxUint64/mult {
		return 0, fmt.Errorf("overflows")
	}
	return n * mult, nil
}

// formatBytes renders a byte count canonically: the largest binary
// suffix that divides it exactly, else plain digits.
func formatBytes(n uint64) string {
	switch {
	case n != 0 && n%(1<<30) == 0:
		return strconv.FormatUint(n>>30, 10) + "G"
	case n != 0 && n%(1<<20) == 0:
		return strconv.FormatUint(n>>20, 10) + "M"
	case n != 0 && n%(1<<10) == 0:
		return strconv.FormatUint(n>>10, 10) + "K"
	default:
		return strconv.FormatUint(n, 10)
	}
}

// ParseSynthParams parses the parenthesized parameter list of a
// "synth(...)" spec (the full name, including the "synth(" prefix and
// ")" suffix; bare "synth" is the all-defaults spec). Errors are
// actionable: they name the offending knob, its value, and the accepted
// range.
func ParseSynthParams(name string) (SynthParams, error) {
	p := SynthDefaults()
	if name == "synth" {
		return p, nil
	}
	inner, ok := strings.CutPrefix(name, "synth(")
	if !ok || !strings.HasSuffix(inner, ")") {
		return p, fmt.Errorf("synth: malformed spec %q (want synth(k=v,...) or a family like synth-random)", name)
	}
	inner = inner[:len(inner)-1]
	if strings.ContainsAny(inner, "()") {
		return p, fmt.Errorf("synth: malformed spec %q (nested parentheses)", name)
	}
	if strings.TrimSpace(inner) == "" {
		return p, nil
	}
	seen := make(map[string]bool)
	for _, item := range strings.Split(inner, ",") {
		item = strings.TrimSpace(item)
		k, v, ok := strings.Cut(item, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return p, fmt.Errorf("synth: parameter %q is not name=value", item)
		}
		var kn *knob
		for i := range knobs {
			if knobs[i].name == k {
				kn = &knobs[i]
				break
			}
		}
		if kn == nil {
			return p, fmt.Errorf("synth: unknown parameter %q (want one of %s)", k, knobNames())
		}
		if seen[k] {
			return p, fmt.Errorf("synth: duplicate parameter %q", k)
		}
		seen[k] = true
		if err := kn.set(&p, v); err != nil {
			return p, err
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Validate reports the first cross-parameter problem. Per-knob range
// checks happen at parse time; this catches combinations each knob
// cannot see alone.
func (p SynthParams) Validate() error {
	if p.Ld+p.St+p.Bf > 0.9 {
		return fmt.Errorf("synth: ld+st+bf = %s leaves under 10%% of the mix for computation (max 0.9)",
			formatFloat(p.Ld+p.St+p.Bf))
	}
	return nil
}

// Canonical renders the parameter set in the one canonical spelling:
// "synth(...)" with only the non-default knobs, in canonical knob
// order, in canonical number formats; the all-defaults set is bare
// "synth". Canonical is a fixed point of ParseSynthParams: parsing its
// output reproduces p exactly.
func (p SynthParams) Canonical() string {
	d := SynthDefaults()
	var b strings.Builder
	b.WriteString("synth(")
	first := true
	for i := range knobs {
		v, differs := knobs[i].render(&p, &d)
		if !differs {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(knobs[i].name)
		b.WriteByte('=')
		b.WriteString(v)
	}
	if first {
		return "synth"
	}
	b.WriteByte(')')
	return b.String()
}

// SynthFamilies lists the named distribution families, sorted. Each family
// name is itself a canonical spec; the stream seed selects the member
// of the population.
func SynthFamilies() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// IsSynthFamily reports whether the name is a registered distribution family.
func IsSynthFamily(name string) bool {
	_, ok := families[name]
	return ok
}
