package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMarshalJSONBasics(t *testing.T) {
	cases := map[string]Value{
		`null`:            Null,
		`true`:            Bool(true),
		`42`:              Int(42),
		`2.5`:             Float(2.5),
		`"hi"`:            Str("hi"),
		`{"a":1,"b":"x"}`: TupleOf(F("a", Int(1)), F("b", Str("x"))),
		`[1,2,3]`:         SetOf(Int(3), Int(1), Int(2)),
		`[1,1]`:           ListOf(Int(1), Int(1)),
		`{"s":[{"k":1}]}`: TupleOf(F("s", SetOf(TupleOf(F("k", Int(1)))))),
		`{}`:              TupleOf(),
		`[]`:              EmptySet,
	}
	for want, v := range cases {
		got, err := json.Marshal(v)
		if err != nil {
			t.Errorf("Marshal(%s): %v", v, err)
			continue
		}
		if string(got) != want {
			t.Errorf("Marshal(%s) = %s, want %s", v, got, want)
		}
	}
}

func TestMarshalJSONRejectsNaN(t *testing.T) {
	if _, err := json.Marshal(Float(math.NaN())); err == nil {
		t.Error("NaN should not marshal")
	}
	if _, err := json.Marshal(Float(math.Inf(1))); err == nil {
		t.Error("Inf should not marshal")
	}
	// Inside a container too.
	if _, err := json.Marshal(SetOf(Float(math.NaN()))); err == nil {
		t.Error("NaN inside a set should not marshal")
	}
}

func TestFromJSON(t *testing.T) {
	cases := map[string]Value{
		`null`:             Null,
		`false`:            Bool(false),
		`7`:                Int(7),
		`7.5`:              Float(7.5),
		`"s"`:              Str("s"),
		`[3,1,2,1]`:        SetOf(Int(1), Int(2), Int(3)), // arrays decode as sets
		`{"b":2,"a":1}`:    TupleOf(F("a", Int(1)), F("b", Int(2))),
		`{"x":[{"y":[]}]}`: TupleOf(F("x", SetOf(TupleOf(F("y", EmptySet))))),
		` 1 `:              Int(1),
	}
	for src, want := range cases {
		got, err := FromJSON([]byte(src))
		if err != nil {
			t.Errorf("FromJSON(%q): %v", src, err)
			continue
		}
		if !Equal(got, want) {
			t.Errorf("FromJSON(%q) = %s, want %s", src, got, want)
		}
	}
}

func TestFromJSONErrors(t *testing.T) {
	bad := []string{``, `{`, `1 2`, `{"a":}`, `[1,]`}
	for _, src := range bad {
		if _, err := FromJSON([]byte(src)); err == nil {
			t.Errorf("FromJSON(%q) should fail", src)
		}
	}
}

func TestUnmarshalJSONInterface(t *testing.T) {
	var v Value
	if err := json.Unmarshal([]byte(`{"a":[1,2]}`), &v); err != nil {
		t.Fatal(err)
	}
	want := TupleOf(F("a", SetOf(Int(1), Int(2))))
	if !Equal(v, want) {
		t.Errorf("Unmarshal = %s", v)
	}
	if err := json.Unmarshal([]byte(`{bad`), &v); err == nil {
		t.Error("bad JSON should fail")
	}
}

// TestJSONRoundTripQuick: for random set-based values without floats,
// marshal∘unmarshal is the identity (the documented lossless fragment).
func TestJSONRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Values: func(vs []reflect.Value, r *rand.Rand) {
		for i := range vs {
			vs[i] = reflect.ValueOf(randomJSONSafeValue(r, 3))
		}
	}}
	if err := quick.Check(func(v Value) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		back, err := FromJSON(data)
		if err != nil {
			return false
		}
		return Equal(v, back)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// randomJSONSafeValue avoids lists (decode as sets) and floats (whole floats
// decode as ints) so that the round trip is exact.
func randomJSONSafeValue(r *rand.Rand, depth int) Value {
	max := 4
	if depth > 0 {
		max = 6
	}
	switch r.Intn(max) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int(int64(r.Intn(40) - 20))
	case 2, 3:
		return Str(string(rune('a' + r.Intn(5))))
	case 4:
		n := r.Intn(3)
		fs := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			fs = append(fs, F(string(rune('p'+i)), randomJSONSafeValue(r, depth-1)))
		}
		return TupleOf(fs...)
	default:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randomJSONSafeValue(r, depth-1)
		}
		return SetOf(es...)
	}
}

// marshalReference is the encoder AppendJSON replaced: json.Marshal for every
// float, string and label, fmt for ints. AppendJSON must reproduce its bytes.
func marshalReference(buf *bytes.Buffer, v Value) error {
	switch v.Kind() {
	case KindNull:
		buf.WriteString("null")
	case KindBool:
		if v.AsBool() {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case KindInt:
		fmt.Fprintf(buf, "%d", v.AsInt())
	case KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("value: cannot encode %v as JSON", f)
		}
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		buf.Write(b)
	case KindString:
		b, _ := json.Marshal(v.AsString())
		buf.Write(b)
	case KindTuple:
		buf.WriteByte('{')
		for i, f := range v.Fields() {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, _ := json.Marshal(f.Label)
			buf.Write(kb)
			buf.WriteByte(':')
			if err := marshalReference(buf, f.V); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		buf.WriteByte('[')
		for i, e := range v.Elems() {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := marshalReference(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	}
	return nil
}

// jsonStrings need every escaping rule encoding/json has: quotes and
// backslashes, HTML characters, control bytes, DEL, U+2028/U+2029, invalid
// UTF-8 and multi-byte runes.
var jsonStrings = []string{
	"", "plain", "with space", `q"uote`, `back\slash`, "<a&b>", "x>y", "tab\tnl\n", "\x00\x01\x1f",
	"\x7f", "line\u2028sep\u2029", "\xff\xfe", "ok\xc3", "héllo", "日本", "emoji 🙂", "/slash",
}

var jsonFloats = []float64{
	0, math.Copysign(0, -1), 0.1, -0.1, 1, 1.5, 1e20, 1e21, -1e21, 1e-6, 9.99e-7, 1e-7, 5e-324,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 1e100, 2.5e-10,
}

// randomJSONValue draws from every kind, with jsonStrings and jsonFloats
// mixed into random ints, floats and bytes.
func randomJSONValue(r *rand.Rand, depth int) Value {
	max := 6
	if depth > 0 {
		max = 9
	}
	switch r.Intn(max) {
	case 0:
		return Null
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		if r.Intn(2) == 0 {
			return Float(jsonFloats[r.Intn(len(jsonFloats))])
		}
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0.25
		}
		return Float(f)
	case 4:
		if r.Intn(2) == 0 {
			return Str(jsonStrings[r.Intn(len(jsonStrings))])
		}
		b := make([]byte, r.Intn(6))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return Str(string(b))
	case 5:
		return Str(string(rune('a' + r.Intn(26))))
	case 6:
		n := r.Intn(4)
		fs := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			label := jsonStrings[r.Intn(len(jsonStrings))] + string(rune('a'+i))
			fs = append(fs, F(label, randomJSONValue(r, depth-1)))
		}
		return TupleOf(fs...)
	case 7:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randomJSONValue(r, depth-1)
		}
		return SetOf(es...)
	default:
		n := r.Intn(3)
		es := make([]Value, n)
		for i := range es {
			es[i] = randomJSONValue(r, depth-1)
		}
		return ListOf(es...)
	}
}

// TestAppendJSONMatchesMarshalQuick: AppendJSON appends exactly the bytes of
// the reference encoder, which are also json.Marshal's (MarshalJSON wraps
// AppendJSON, and json.Marshal's compaction and HTML escaping must find
// nothing left to change).
func TestAppendJSONMatchesMarshalQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Values: func(vs []reflect.Value, r *rand.Rand) {
		for i := range vs {
			vs[i] = reflect.ValueOf(randomJSONValue(r, 3))
		}
	}}
	if err := quick.Check(func(v Value) bool {
		var want bytes.Buffer
		if err := marshalReference(&want, v); err != nil {
			t.Fatalf("reference encoder failed on %s: %v", v, err)
		}
		got, err := AppendJSON([]byte("prefix"), v)
		if err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want.Bytes()) {
			t.Logf("AppendJSON(%s) = %q, %v; want %q", v, got, err, want.Bytes())
			return false
		}
		marshaled, err := json.Marshal(v)
		if err != nil || !bytes.Equal(marshaled, want.Bytes()) {
			t.Logf("json.Marshal(%s) = %q, %v; want %q", v, marshaled, err, want.Bytes())
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestAppendJSONRejectsNonFinite pins the error text, also from deep inside
// a container.
func TestAppendJSONRejectsNonFinite(t *testing.T) {
	for _, v := range []Value{
		Float(math.NaN()), Float(math.Inf(-1)),
		TupleOf(F("a", Int(1)), F("b", ListOf(SetOf(Float(math.Inf(1)))))),
	} {
		var ref bytes.Buffer
		wantErr := marshalReference(&ref, v)
		if _, err := AppendJSON(nil, v); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("AppendJSON(%s) error = %v, want %v", v, err, wantErr)
		}
	}
}
