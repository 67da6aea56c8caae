package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxStreams bounds how many streams one workload may mix. It must not
// exceed core.MaxStreams (the machine's per-stream front-end capacity);
// both are 8, the paper's cluster count, which is already far past the
// point where fetch bandwidth, not stream count, limits the machine.
const MaxStreams = 8

// StreamSpec names one instruction stream of a workload: a profile plus
// the knobs that distinguish this stream from every other instance of the
// same profile.
type StreamSpec struct {
	// Program is the workload profile the stream replays.
	Program string
	// Insts is the stream's measured instruction budget; 0 inherits the
	// request-level budget.
	Insts uint64
	// Seed overrides the profile's PRNG seed (so two streams of the same
	// program diverge); 0 keeps the profile's own seed.
	Seed uint64
}

// label renders the stream in the spec string syntax:
// program[:insts][@seed].
func (s StreamSpec) label() string {
	var b strings.Builder
	b.WriteString(s.Program)
	if s.Insts != 0 {
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(s.Insts, 10))
	}
	if s.Seed != 0 {
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(s.Seed, 10))
	}
	return b.String()
}

// Spec describes one simulation's workload: one or more named instruction
// streams sharing the machine. A single-stream spec is exactly the
// classic single-program run; multiple streams are fetched under ICOUNT
// arbitration with disjoint address spaces, the multi-programmed mode.
//
// Stream order is semantic: it fixes each stream's address-space slot and
// breaks fetch-arbitration ties, so "gcc+swim" and "swim+gcc" are
// different (and differently keyed) simulations.
type Spec struct {
	Streams []StreamSpec
}

// Single is the workload of one program with default budget and seed —
// the spec every pre-multiprogramming request reduces to.
func Single(program string) Spec {
	return Spec{Streams: []StreamSpec{{Program: program}}}
}

// Mix is the workload of the given programs as concurrent streams, each
// with default budget and seed.
func Mix(programs ...string) Spec {
	streams := make([]StreamSpec, len(programs))
	for i, p := range programs {
		streams[i] = StreamSpec{Program: p}
	}
	return Spec{Streams: streams}
}

// SingleProgram reports whether the spec is the plain single-program
// shorthand — exactly one stream with default budget and seed — and if
// so, which program. Wire encodings use it to keep such specs
// byte-identical to historical single-program requests.
func (s Spec) SingleProgram() (string, bool) {
	if len(s.Streams) == 1 && s.Streams[0].Insts == 0 && s.Streams[0].Seed == 0 {
		return s.Streams[0].Program, true
	}
	return "", false
}

// Name is the spec's canonical label: stream labels joined with "+".
// Single-stream default specs collapse to the bare program name, so
// result sets keyed by workload name stay keyed by program name for
// every pre-multiprogramming consumer.
func (s Spec) Name() string {
	parts := make([]string, len(s.Streams))
	for i, st := range s.Streams {
		parts[i] = st.label()
	}
	return strings.Join(parts, "+")
}

// Validate reports the first structural problem with the spec: no
// streams, too many streams, or a stream naming an unknown program.
func (s Spec) Validate() error {
	if len(s.Streams) == 0 {
		return fmt.Errorf("workload: spec has no streams")
	}
	if len(s.Streams) > MaxStreams {
		return fmt.Errorf("workload: spec has %d streams (max %d)", len(s.Streams), MaxStreams)
	}
	for i, st := range s.Streams {
		if st.Program == "" {
			return fmt.Errorf("workload: stream %d has no program", i)
		}
		if IsSynthName(st.Program) {
			if _, err := CanonicalName(st.Program); err != nil {
				return fmt.Errorf("workload: stream %d: %w", i, err)
			}
			continue
		}
		if _, err := ByName(st.Program); err != nil {
			return fmt.Errorf("workload: stream %d: %w", i, err)
		}
	}
	return nil
}

// Class reduces the spec to a suite class: ClassInt or ClassFP when every
// stream agrees, ClassMixed otherwise.
func (s Spec) Class() (ProgramClass, error) {
	var cls ProgramClass
	for i, st := range s.Streams {
		c, err := ClassOf(st.Program)
		if err != nil {
			return cls, err
		}
		if i == 0 {
			cls = c
		} else if c != cls {
			return ClassMixed, nil
		}
	}
	return cls, nil
}

// ParseSpec parses the spec string syntax: stream labels joined with
// "+", each label program[:insts][@seed]. "gcc" is the classic single
// run; "gcc+swim" a two-stream mix; "gcc@7+gcc@8" two diverging copies
// of one program; "gcc:50000" a stream with an explicit budget. A
// program starting with "synth" is a synthetic spec (see synth.go)
// and is validated and canonicalized here — parameter order and number
// formatting are normalized so equal workloads have equal Name() bytes
// and therefore equal content keys. Fixed-profile existence is not
// checked here (Validate does that), so parsing stays a syntax concern.
func ParseSpec(s string) (Spec, error) {
	if s == "" {
		return Spec{}, fmt.Errorf("workload: empty spec")
	}
	parts := strings.Split(s, "+")
	spec := Spec{Streams: make([]StreamSpec, len(parts))}
	for i, part := range parts {
		st, err := parseStream(part)
		if err != nil {
			return Spec{}, fmt.Errorf("workload: spec %q: %w", s, err)
		}
		spec.Streams[i] = st
	}
	return spec, nil
}

// parseStream parses one program[:insts][@seed] label.
func parseStream(s string) (StreamSpec, error) {
	var st StreamSpec
	if at := strings.IndexByte(s, '@'); at >= 0 {
		seed, err := strconv.ParseUint(s[at+1:], 10, 64)
		if err != nil {
			return st, fmt.Errorf("bad seed in %q", s)
		}
		st.Seed = seed
		s = s[:at]
	}
	if col := strings.IndexByte(s, ':'); col >= 0 {
		insts, err := strconv.ParseUint(s[col+1:], 10, 64)
		if err != nil {
			return st, fmt.Errorf("bad instruction budget in %q", s)
		}
		st.Insts = insts
		s = s[:col]
	}
	if s == "" {
		return st, fmt.Errorf("empty program name")
	}
	if IsSynthName(s) {
		canon, err := CanonicalName(s)
		if err != nil {
			return st, err
		}
		s = canon
	}
	st.Program = s
	return st, nil
}
