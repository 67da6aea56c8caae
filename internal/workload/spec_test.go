package workload

import (
	"reflect"
	"testing"
)

func TestSpecParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"gcc", Single("gcc")},
		{"gcc+swim", Spec{Streams: []StreamSpec{{Program: "gcc"}, {Program: "swim"}}}},
		{"gcc@7", Spec{Streams: []StreamSpec{{Program: "gcc", Seed: 7}}}},
		{"gcc:50000", Spec{Streams: []StreamSpec{{Program: "gcc", Insts: 50000}}}},
		{"gcc:50000@7+swim", Spec{Streams: []StreamSpec{
			{Program: "gcc", Insts: 50000, Seed: 7}, {Program: "swim"}}}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if name := got.Name(); name != c.in {
			t.Errorf("Name() round trip: %q -> %q", c.in, name)
		}
	}
}

// mustParse parses a spec string the test knows to be well formed.
func mustParse(t *testing.T, in string) Spec {
	t.Helper()
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", in, err)
	}
	return s
}

func TestSpecParseErrors(t *testing.T) {
	for _, in := range []string{"", "gcc@", "gcc@x", "gcc:", "gcc:x", "+gcc", "gcc+", "@3"} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestSpecSingleProgram(t *testing.T) {
	if name, ok := Single("gcc").SingleProgram(); !ok || name != "gcc" {
		t.Errorf("Single(gcc).SingleProgram() = %q, %v", name, ok)
	}
	for _, s := range []Spec{
		mustParse(t, "gcc+swim"),
		{Streams: []StreamSpec{{Program: "gcc", Seed: 1}}},
		{Streams: []StreamSpec{{Program: "gcc", Insts: 10}}},
	} {
		if _, ok := s.SingleProgram(); ok {
			t.Errorf("%s claims to be the single-program shorthand", s.Name())
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := mustParse(t, "gcc+swim").Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	bad := []Spec{
		{},
		mustParse(t, "gcc+nosuch"),
		{Streams: []StreamSpec{{Program: ""}}},
		mustParse(t, "gcc+gcc+gcc+gcc+gcc+gcc+gcc+gcc+gcc"), // 9 > MaxStreams
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", s)
		}
	}
}

func TestSpecClass(t *testing.T) {
	cases := []struct {
		spec Spec
		want ProgramClass
	}{
		{Single("gcc"), ClassInt},
		{Single("swim"), ClassFP},
		{mustParse(t, "gcc+crafty"), ClassInt},
		{mustParse(t, "swim+applu"), ClassFP},
		{mustParse(t, "gcc+swim"), ClassMixed},
	}
	for _, c := range cases {
		got, err := c.spec.Class()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name(), err)
		}
		if got != c.want {
			t.Errorf("%s class = %v, want %v", c.spec.Name(), got, c.want)
		}
	}
	if _, err := Single("nosuch").Class(); err == nil {
		t.Error("unknown program class accepted")
	}
	if ClassMixed.String() != "MIX" {
		t.Errorf("ClassMixed label %q", ClassMixed.String())
	}
}

func TestResolveList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"all", Names()},
		{"INT", SuiteNames(ClassInt)},
		{"fp", SuiteNames(ClassFP)},
		{"gcc+swim, mcf", []string{"gcc+swim", "mcf"}},
		{"synth(ws=4M,ilp=8),gcc@7", []string{"synth(ilp=8,ws=4M)", "gcc@7"}},
	}
	for _, c := range cases {
		got, err := ResolveList(c.in)
		if err != nil {
			t.Fatalf("ResolveList(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ResolveList(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", " , ", "gcc,nosuch", "gcc+", "synth(ilp=0)"} {
		if got, err := ResolveList(bad); err == nil {
			t.Errorf("ResolveList(%q) = %q, want an error", bad, got)
		}
	}
}
