package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// canonicalize re-emits one JSON value with object keys sorted at every
// level and no insignificant whitespace. Strings come out as json.Marshal
// writes them (HTML-safe, U+2028/U+2029 escaped); numbers and literals are
// kept verbatim, so integers above 2^53 survive exactly. A key repeated
// within one object keeps its last value. Like json.Decoder.Decode it
// reads the first value of raw and ignores what follows it.
func canonicalize(raw []byte) ([]byte, error) {
	c := canonPool.Get().(*canonEncoder)
	defer canonPool.Put(c)
	out, err := c.encode(raw)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(out), nil
}

// canonicalHash is the SHA-256 of v's canonical encoding: json.Marshal
// straight into a reused buffer, then one canonicalizing pass.
func canonicalHash(v any) ([sha256.Size]byte, error) {
	c := canonPool.Get().(*canonEncoder)
	defer canonPool.Put(c)
	c.raw.Reset()
	if err := json.NewEncoder(&c.raw).Encode(v); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("results: encode: %w", err)
	}
	out, err := c.encode(c.raw.Bytes())
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(out), nil
}

var canonPool = sync.Pool{New: func() any { return new(canonEncoder) }}

// maxCanonDepth is encoding/json's nesting limit: deeper input is refused
// there, so it is refused here.
const maxCanonDepth = 10000

// canonEncoder canonicalizes in one pass over its input. Each object's
// members are encoded in input order straight into out, remembering every
// member's decoded name and its span of out; an object whose names are not
// already strictly ascending then has its spans sorted and copied back in
// order. Every buffer is reused across calls.
type canonEncoder struct {
	in   []byte
	pos  int
	out  []byte
	raw  bytes.Buffer  // canonicalHash's json.Marshal output
	keys []byte        // decoded member names of the open objects
	mems []canonMember // members of the open objects, innermost last
	tmp  []byte        // an object's members while they are reordered
}

// canonMember is one object member: its decoded name at keys[k0:k1] and
// its encoding `"name":value` at out[start:end].
type canonMember struct {
	k0, k1     int
	start, end int
}

var errCanonSyntax = errors.New("invalid JSON")

func (c *canonEncoder) encode(raw []byte) ([]byte, error) {
	c.in, c.pos, c.out = raw, 0, c.out[:0]
	c.keys, c.mems = c.keys[:0], c.mems[:0]
	c.space()
	err := c.value(0)
	c.in = nil
	if err != nil {
		return nil, fmt.Errorf("results: canonicalize: %w at offset %d", err, c.pos)
	}
	return c.out, nil
}

func (c *canonEncoder) space() {
	for c.pos < len(c.in) {
		switch c.in[c.pos] {
		case ' ', '\t', '\n', '\r':
			c.pos++
		default:
			return
		}
	}
}

func (c *canonEncoder) value(depth int) error {
	if c.pos >= len(c.in) {
		return errCanonSyntax
	}
	switch b := c.in[c.pos]; {
	case b == '{':
		return c.object(depth + 1)
	case b == '[':
		return c.array(depth + 1)
	case b == '"':
		_, err := c.str()
		return err
	case b == 't':
		return c.literal("true")
	case b == 'f':
		return c.literal("false")
	case b == 'n':
		return c.literal("null")
	case b == '-' || ('0' <= b && b <= '9'):
		return c.number()
	}
	return errCanonSyntax
}

func (c *canonEncoder) literal(lit string) error {
	if !bytes.HasPrefix(c.in[c.pos:], []byte(lit)) {
		return errCanonSyntax
	}
	c.pos += len(lit)
	c.out = append(c.out, lit...)
	return nil
}

// number copies one number literal verbatim after checking its grammar.
func (c *canonEncoder) number() error {
	in, i := c.in, c.pos
	digits := func() bool {
		n := i
		for i < len(in) && '0' <= in[i] && in[i] <= '9' {
			i++
		}
		return i > n
	}
	if in[i] == '-' {
		i++
	}
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case !digits():
		return errCanonSyntax
	}
	if i < len(in) && in[i] == '.' {
		i++
		if !digits() {
			return errCanonSyntax
		}
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		i++
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if !digits() {
			return errCanonSyntax
		}
	}
	c.out = append(c.out, in[c.pos:i]...)
	c.pos = i
	return nil
}

// str encodes the string at c.pos the way json.Marshal writes its decoded
// value and returns that value. Printable ASCII without escapes or HTML
// characters is its own encoding and is copied; anything else goes
// through encoding/json both ways.
func (c *canonEncoder) str() ([]byte, error) {
	in := c.in
	i := c.pos + 1
	for i < len(in) {
		b := in[i]
		if b == '"' || b < 0x20 || b >= 0x80 || b == '\\' || b == '<' || b == '>' || b == '&' {
			break
		}
		i++
	}
	if i < len(in) && in[i] == '"' {
		c.out = append(c.out, in[c.pos:i+1]...)
		s := in[c.pos+1 : i]
		c.pos = i + 1
		return s, nil
	}
	for i < len(in) && in[i] != '"' {
		switch {
		case in[i] < 0x20:
			return nil, errCanonSyntax
		case in[i] == '\\':
			i++
		}
		i++
	}
	if i >= len(in) {
		return nil, errCanonSyntax
	}
	var s string
	if err := json.Unmarshal(in[c.pos:i+1], &s); err != nil {
		return nil, err
	}
	enc, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	c.out = append(c.out, enc...)
	c.pos = i + 1
	return []byte(s), nil
}

func (c *canonEncoder) array(depth int) error {
	if depth > maxCanonDepth {
		return errCanonSyntax
	}
	c.pos++
	c.out = append(c.out, '[')
	c.space()
	if c.pos < len(c.in) && c.in[c.pos] == ']' {
		c.pos++
		c.out = append(c.out, ']')
		return nil
	}
	for {
		c.space()
		if err := c.value(depth); err != nil {
			return err
		}
		c.space()
		if c.pos >= len(c.in) {
			return errCanonSyntax
		}
		switch c.in[c.pos] {
		case ',':
			c.pos++
			c.out = append(c.out, ',')
		case ']':
			c.pos++
			c.out = append(c.out, ']')
			return nil
		default:
			return errCanonSyntax
		}
	}
}

func (c *canonEncoder) object(depth int) error {
	if depth > maxCanonDepth {
		return errCanonSyntax
	}
	c.pos++
	c.out = append(c.out, '{')
	body, base, kbase := len(c.out), len(c.mems), len(c.keys)
	c.space()
	if c.pos < len(c.in) && c.in[c.pos] == '}' {
		c.pos++
		c.out = append(c.out, '}')
		return nil
	}
	for {
		c.space()
		if c.pos >= len(c.in) || c.in[c.pos] != '"' {
			return errCanonSyntax
		}
		m := canonMember{start: len(c.out), k0: len(c.keys)}
		name, err := c.str()
		if err != nil {
			return err
		}
		c.keys = append(c.keys, name...)
		m.k1 = len(c.keys)
		c.space()
		if c.pos >= len(c.in) || c.in[c.pos] != ':' {
			return errCanonSyntax
		}
		c.pos++
		c.out = append(c.out, ':')
		c.space()
		if err := c.value(depth); err != nil {
			return err
		}
		m.end = len(c.out)
		c.mems = append(c.mems, m)
		c.space()
		if c.pos >= len(c.in) {
			return errCanonSyntax
		}
		if c.in[c.pos] == '}' {
			c.pos++
			break
		}
		if c.in[c.pos] != ',' {
			return errCanonSyntax
		}
		c.pos++
		c.out = append(c.out, ',')
	}
	c.order(body, c.mems[base:])
	c.mems, c.keys = c.mems[:base], c.keys[:kbase]
	c.out = append(c.out, '}')
	return nil
}

// order rewrites the members encoded at out[body:] sorted by name,
// keeping only the last of equal names. Members already strictly
// ascending stay where they are.
func (c *canonEncoder) order(body int, ms []canonMember) {
	name := func(m canonMember) []byte { return c.keys[m.k0:m.k1] }
	sorted := true
	for i := 1; i < len(ms) && sorted; i++ {
		sorted = bytes.Compare(name(ms[i-1]), name(ms[i])) < 0
	}
	if sorted {
		return
	}
	slices.SortFunc(ms, func(a, b canonMember) int {
		if d := bytes.Compare(name(a), name(b)); d != 0 {
			return d
		}
		return a.start - b.start // equal names keep input order
	})
	c.tmp = append(c.tmp[:0], c.out[body:]...)
	c.out = c.out[:body]
	for i, m := range ms {
		if i+1 < len(ms) && bytes.Equal(name(m), name(ms[i+1])) {
			continue // a later duplicate wins
		}
		if len(c.out) > body {
			c.out = append(c.out, ',')
		}
		c.out = append(c.out, c.tmp[m.start-body:m.end-body]...)
	}
}
