package workload

import (
	"strings"

	"repro/internal/trace"
)

// Synthetic workloads extend the 26 fixed profiles into an unbounded,
// content-addressed space: any program name starting with "synth" is a
// parameterized spec ("synth(ilp=8,ws=4M)") or a named distribution
// family ("synth-random"). The grammar lives in synth.go, the families
// in synthfamily.go and the phased stream in synthstream.go; the entry
// points below resolve fixed and synthetic names alike, so every binary
// that takes a program name accepts synth specs.
//
// Synth resolution is fully deterministic: the canonical name plus the
// stream seed pin the instruction stream bit-for-bit across processes
// and machines, because both the trace cache and the content-addressed
// result store key off them.

// IsSynthName reports whether a program name denotes a synthetic
// workload rather than one of the fixed profiles. No fixed profile name
// starts with "synth", so the prefix is unambiguous.
func IsSynthName(name string) bool { return strings.HasPrefix(name, "synth") }

// resolveSynth parses a synth name — parameterized spec or family —
// into the parameter set it denotes under the given stream seed, plus
// its canonical spelling. Family members sample their parameters from
// the seed; parameterized specs ignore it here (the seed still separates
// their generator streams).
func resolveSynth(name string, seed uint64) (SynthParams, string, error) {
	if IsSynthFamily(name) {
		p, err := sampleFamily(name, seed)
		return p, name, err
	}
	p, err := ParseSynthParams(name)
	if err != nil {
		return SynthParams{}, "", err
	}
	return p, p.Canonical(), nil
}

// CanonicalName returns the canonical spelling of a program name: fixed
// profile names are already canonical (existence is checked by Validate,
// not here), synthetic names are validated and rendered with parameters
// in canonical order and formatting, so that equal workloads have equal
// bytes — and therefore equal content keys — however the spec was
// written.
func CanonicalName(name string) (string, error) {
	if !IsSynthName(name) || IsSynthFamily(name) {
		return name, nil
	}
	p, err := ParseSynthParams(name)
	if err != nil {
		return "", err
	}
	return p.Canonical(), nil
}

// ClassOf returns the suite class of a program name, resolving both
// fixed profiles and synthetic specs. A family whose members span both
// suites (synth-random) is ClassMixed.
func ClassOf(name string) (ProgramClass, error) {
	if IsSynthName(name) {
		if f, ok := families[name]; ok {
			return f.class, nil
		}
		p, err := ParseSynthParams(name)
		if err != nil {
			return ClassMixed, err
		}
		return synthClass(p), nil
	}
	p, err := ByName(name)
	if err != nil {
		return ClassMixed, err
	}
	return p.Class, nil
}

// NewStream returns the infinite instruction stream one workload stream
// replays: program resolved by name (fixed profile or synthetic spec),
// with seed overriding the default PRNG seed (0 keeps it). This is the
// single construction point the trace cache and every fallback path use,
// so both produce bit-identical sequences.
func NewStream(program string, seed uint64) (trace.Stream, error) {
	if IsSynthName(program) {
		p, canon, err := resolveSynth(program, seed)
		if err != nil {
			return nil, err
		}
		return newSynthStream(p, canon, seed)
	}
	prof, err := ByName(program)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		prof.Seed = seed
	}
	return NewGenerator(prof)
}

// SplitList splits a comma-separated list of spec strings, ignoring
// commas nested inside parentheses — "gcc,synth(ilp=8,ws=4M),swim" is
// three items. Empty items are dropped and the rest are
// whitespace-trimmed. CLI flags that take workload lists must use this
// instead of strings.Split, or synth parameter lists would be torn
// apart.
func SplitList(s string) []string {
	var out []string
	depth, start := 0, 0
	flush := func(end int) {
		if item := strings.TrimSpace(s[start:end]); item != "" {
			out = append(out, item)
		}
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				flush(i)
				start = i + 1
			}
		}
	}
	flush(len(s))
	return out
}
