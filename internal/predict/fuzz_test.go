package predict

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode: profiles are read back from <cache-dir>/profiles, so Decode
// sees whatever is on disk. It must never panic, and a profile it accepts
// must survive Encode → Decode unchanged, with Encode a fixed point.
func FuzzDecode(f *testing.F) {
	p := summarize(f, "gcc", 1, 2_000)
	good, err := p.Encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{
		good,
		[]byte(`{"schema":"` + SchemaV1 + `"}`),
		[]byte(`{"schema":"` + SchemaV1 + `","ring":[{"clusters":4,"hops":null}],"conv":[]}`),
		[]byte(`{"schema":"bogus/9"}`),
		[]byte(`{torn`),
		[]byte(`null`),
		nil,
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		q, err := Decode(in)
		if err != nil {
			return
		}
		enc, err := q.Encode()
		if err != nil {
			t.Fatalf("decoded profile does not encode: %v", err)
		}
		r, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode accepted %q, but not its own encoding %q: %v", in, enc, err)
		}
		if !reflect.DeepEqual(q, r) {
			t.Fatalf("round trip changed the profile:\n%+v\n%+v", q, r)
		}
		again, err := r.Encode()
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("Encode is not a fixed point: %q then %q (%v)", enc, again, err)
		}
	})
}
