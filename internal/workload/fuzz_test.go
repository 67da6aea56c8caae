package workload

import (
	"reflect"
	"testing"
)

// FuzzParseSpec: whatever ParseSpec accepts, its canonical name parses
// back to the same spec and is its own canonical name — the property
// content keys, the trace cache and the journal all lean on when they
// treat Name() as the workload's identity — and nothing it is fed makes it
// panic. Seeded with the accepted spellings and the parse-error table of
// spec_test.go plus synthetic specs in non-canonical order and number
// formats.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"gcc", "gcc+swim", "gcc@7", "gcc:50000", "gcc:50000@7+swim", "gcc@7+gcc@8",
		"", "gcc@", "gcc@x", "gcc:", "gcc:x", "+gcc", "gcc+", "@3",
		"gcc:007@0", "a:1:2", "a@1@2", "gcc+synth(ilp=0)",
		"synth-random@9", "synth-random:5000@9",
		"synth(ws=4194304,ilp=8.0)+synth-random:5000@9",
		"synth(ilp=8,ws=4M)", "synth(ws=16M,stride=0.3,ilp=4)@3",
		"synth(phases=4,plen=1000,ws=64K)", "synth(", "synth()", "synth(ilp=)", "synthetic",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		name := spec.Name()
		again, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its name %q does not parse: %v", in, name, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("ParseSpec(%q) = %+v, but its name %q parses to %+v", in, spec, name, again)
		}
		if again.Name() != name {
			t.Fatalf("name of %q is not a fixed point: %q then %q", in, name, again.Name())
		}
	})
}
