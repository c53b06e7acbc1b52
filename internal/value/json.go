package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// JSON interop for complex-object values, used by tools that export query
// results. The mapping is the natural one:
//
//	tuple → JSON object (labels as keys)
//	set   → JSON array (canonical element order)
//	list  → JSON array
//	bool/int/float/string → the corresponding JSON scalar
//	NULL  → JSON null
//
// Decoding is lossy in two places by necessity — JSON arrays cannot say
// whether they were a set or a list, and JSON numbers whether they were INT
// or REAL — so UnmarshalJSON is guided by a decode mode: arrays become sets
// (TM's dominant collection; duplicates merge) and whole numbers become
// ints. Round-tripping a value therefore yields an Equal value whenever the
// original used sets and no float happens to hold a whole number.

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	b, err := AppendJSON(nil, v)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendJSON appends the JSON encoding of v to dst and returns the extended
// slice. The bytes are exactly what json.Marshal(v) produces — compact, with
// encoding/json's float formatting and HTML-safe string escaping — so a
// caller can assemble a response around a result without a second pass. NaN
// and ±Inf have no JSON encoding and are an error.
func AppendJSON(dst []byte, v Value) ([]byte, error) {
	switch v.kind {
	case KindNull:
		dst = append(dst, "null"...)
	case KindBool:
		if v.w != 0 {
			dst = append(dst, "true"...)
		} else {
			dst = append(dst, "false"...)
		}
	case KindInt:
		dst = strconv.AppendInt(dst, v.i(), 10)
	case KindFloat:
		f := v.f()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("value: cannot encode %v as JSON", f)
		}
		b, err := json.Marshal(f)
		if err != nil {
			return dst, err
		}
		dst = append(dst, b...)
	case KindString:
		dst = appendJSONString(dst, v.str())
	case KindTuple:
		dst = append(dst, '{')
		for i, f := range v.fields() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendJSONString(dst, f.Label), ':')
			var err error
			if dst, err = AppendJSON(dst, f.V); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	case KindSet, KindList:
		dst = append(dst, '[')
		for i, e := range v.elems() {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendJSON(dst, e); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	default:
		return dst, fmt.Errorf("value: unknown kind %d", v.kind)
	}
	return dst, nil
}

// appendJSONString quotes s as json.Marshal does. A string of printable ASCII
// that needs no escaping — no quote, backslash or HTML-sensitive <, >, & — is
// copied between quotes; any other goes through json.Marshal, which escapes
// control bytes, U+2028/U+2029 and HTML characters and replaces invalid
// UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// FromJSON decodes JSON text into a Value: objects become tuples, arrays
// sets, whole numbers ints.
func FromJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Value{}, err
	}
	// Reject trailing garbage.
	if dec.More() {
		return Value{}, fmt.Errorf("value: trailing JSON content")
	}
	return fromJSONValue(raw)
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	out, err := FromJSON(data)
	if err != nil {
		return err
	}
	*v = out
	return nil
}

func fromJSONValue(raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return Value{}, fmt.Errorf("value: bad JSON number %q", x)
		}
		return Float(f), nil
	case string:
		return Str(x), nil
	case []any:
		b := NewSetBuilder(len(x))
		for _, e := range x {
			ev, err := fromJSONValue(e)
			if err != nil {
				return Value{}, err
			}
			b.Add(ev)
		}
		return b.Build(), nil
	case map[string]any:
		labels := make([]string, 0, len(x))
		for k := range x {
			labels = append(labels, k)
		}
		sort.Strings(labels)
		fs := make([]Field, 0, len(x))
		for _, k := range labels {
			fv, err := fromJSONValue(x[k])
			if err != nil {
				return Value{}, err
			}
			fs = append(fs, F(k, fv))
		}
		return TupleOf(fs...), nil
	}
	return Value{}, fmt.Errorf("value: unsupported JSON value %T", raw)
}
