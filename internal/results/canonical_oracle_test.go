package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// oracleCanonicalize is the canonical encoder as it was first written: a
// round trip through map[string]any, re-emitted with sorted keys. It is
// slow and allocates per key, but it is obviously right, so json.Marshal
// of the wire structs, which declare their fields in key order, is tested
// against it byte for byte.
func oracleCanonicalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("results: canonicalize: %w", err)
	}
	var buf bytes.Buffer
	if err := oracleWrite(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func oracleWrite(buf *bytes.Buffer, v any) error {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := oracleWrite(buf, t[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := oracleWrite(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(t.String())
	default:
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}
