package value

import (
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestLayoutSizes pins the representation: a kind, one payload word and one
// pointer. Every Value the nest join builds or moves is copied at this width,
// so growing it is a performance regression that should be deliberate.
func TestLayoutSizes(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 24 {
		t.Errorf("Value is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(Field{}); size != 40 {
		t.Errorf("Field is %d bytes, want 40", size)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare payload pointers, use Equal")
	}
}

// TestAliasCapEqualsLen pins that Fields and Elems hand out slices whose
// capacity ends at their length, whatever capacity the backing array had, so
// a caller's append can never write into a value's payload.
func TestAliasCapEqualsLen(t *testing.T) {
	roomy := make([]Value, 2, 16)
	roomy[0], roomy[1] = Int(1), Int(2)
	b := NewSetBuilder(32)
	for _, i := range []int64{3, 1, 3, 2} {
		b.Add(Int(i))
	}
	tup := TupleOf(F("a", Int(1)), F("c", Int(3)))
	colls := map[string]Value{
		"SetOf/dups":        SetOf(Int(2), Int(1), Int(2)),
		"SetBuilder":        b.Build(),
		"CanonicalSet/cap":  CanonicalSet(roomy),
		"ListOf":            ListOf(Int(1), Int(1)),
		"Union":             Union(SetOf(Int(1)), SetOf(Int(1), Int(2))),
		"Intersect":         Intersect(SetOf(Int(1), Int(2)), SetOf(Int(2))),
		"Diff":              Diff(SetOf(Int(1), Int(2)), SetOf(Int(2))),
		"UnnestSet":         UnnestSet(SetOf(SetOf(Int(1)), SetOf(Int(2)))),
		"FromJSON/array":    mustFromJSON(t, `[3,1,3]`),
		"CanonicalSet/nil":  CanonicalSet(nil),
		"CanonicalSet/zero": CanonicalSet(roomy[:0]),
	}
	for name, v := range colls {
		if es := v.Elems(); cap(es) != len(es) {
			t.Errorf("%s: Elems() has len %d, cap %d", name, len(es), cap(es))
		}
	}
	roomyFields := make([]Field, 1, 8)
	roomyFields[0] = F("a", Int(1))
	tuples := map[string]Value{
		"TupleOf":            tup,
		"Concat":             tup.Concat(TupleOf(F("b", Int(2)))),
		"Extend":             tup.Extend("b", EmptySet),
		"Drop":               tup.Drop("c"),
		"Project":            tup.Project("a"),
		"CanonicalTuple/cap": CanonicalTuple(roomyFields),
		"FromJSON/object":    mustFromJSON(t, `{"b":1,"a":2}`),
	}
	for name, v := range tuples {
		if fs := v.Fields(); cap(fs) != len(fs) {
			t.Errorf("%s: Fields() has len %d, cap %d", name, len(fs), cap(fs))
		}
	}
	// Appending to an accessor's slice copies: the value is unchanged.
	es := CanonicalSet(roomy).Elems()
	_ = append(es, Int(99))
	if roomy[:3][2].kind != KindNull {
		t.Error("append to Elems() wrote into the set's backing array")
	}
}

func mustFromJSON(t *testing.T, src string) Value {
	t.Helper()
	v, err := FromJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAliasEmptyValues pins that every way of making an empty string,
// collection or tuple is Equal to the canonical one and encodes to the same
// key bytes as before the compact layout, whatever pointer the input slice
// or string carried.
func TestAliasEmptyValues(t *testing.T) {
	nonEmpty := "abc"
	roomy := make([]Value, 0, 4)
	cases := []struct {
		name    string
		want    Value
		key     string
		sources []Value
	}{
		{"string", Str(""), "\x04\x00\x00\x00\x00", []Value{Str(nonEmpty[:0]), Str(nonEmpty[3:])}},
		{"set", EmptySet, "\x06\x00\x00\x00\x00", []Value{
			SetOf(), CanonicalSet(nil), CanonicalSet(roomy), NewSetBuilder(4).Build(),
			Intersect(SetOf(Int(1)), SetOf(Int(2))), Diff(SetOf(Int(1)), SetOf(Int(1))), Union(EmptySet, EmptySet),
		}},
		{"list", ListOf(), "\x07\x00\x00\x00\x00", []Value{ListOf([]Value{}...)}},
		{"tuple", TupleOf(), "\x05\x00\x00\x00\x00", []Value{
			CanonicalTuple(nil), CanonicalTuple(make([]Field, 0, 2)), TupleOf(F("a", Int(1))).Drop("a"),
		}},
	}
	for _, c := range cases {
		if got := Key(c.want); got != c.key {
			t.Errorf("%s: Key = %q, want %q", c.name, got, c.key)
		}
		for i, v := range c.sources {
			if !Equal(v, c.want) || Key(v) != c.key || v.String() != c.want.String() {
				t.Errorf("%s #%d: %s (key %q) differs from %s", c.name, i, v, Key(v), c.want)
			}
			if v.p != nil {
				t.Errorf("%s #%d: empty value keeps a payload pointer", c.name, i)
			}
		}
	}
	if !EmptySet.IsEmptySet() || !SetOf().IsEmptySet() || ListOf().IsEmptySet() {
		t.Error("IsEmptySet misbehaves on empty collections")
	}
}

// goldenNested exercises every kind, both int encodings (one a float can
// equal, one beyond 2^53), -0.0, NaN, non-ASCII and NUL bytes, and a set of
// tuples of lists.
func goldenNested() Value {
	return TupleOf(
		F("big", Int(1<<53+1)),
		F("neg", Int(-(1<<60+3))),
		F("small", Int(3)),
		F("negzero", Float(math.Copysign(0, -1))),
		F("nan", Float(math.NaN())),
		F("pi", Float(3.25)),
		F("s", Str("héllo\x00")),
		F("empty", Str("")),
		F("flag", True),
		F("nothing", Null),
		F("rows", SetOf(
			TupleOf(F("k", Int(2)), F("l", ListOf(Str("b"), Int(1<<62), EmptySet))),
			TupleOf(F("k", Int(1)), F("l", ListOf())),
			TupleOf(F("k", Float(1.5)), F("l", ListOf(SetOf(Int(-1), Float(-0.5)), TupleOf()))),
		)),
	)
}

// TestAppendKeyGoldenNested pins the key bytes and String() of goldenNested,
// captured from the representation before the compact layout: grouping keys
// and rendered results must not depend on how a Value is laid out.
func TestAppendKeyGoldenNested(t *testing.T) {
	const wantKey = "050b0000000300000062696702010000000000200005000000656d707479040000000004000000666c61670101030000006e616e03010000000000f87f030000006e656702fdffffffffffffef070000006e65677a65726f030000000000000000070000006e6f7468696e6700020000007069030000000000000a4004000000726f777306030000000502000000010000006b03000000000000f03f010000006c07000000000502000000010000006b03000000000000f83f010000006c0702000000060200000003000000000000f0bf03000000000000e0bf05000000000502000000010000006b030000000000000040010000006c070300000004010000006203000000000000d04306000000000100000073040700000068c3a96c6c6f0005000000736d616c6c030000000000000840"
	const wantString = `(big = 9007199254740993, empty = "", flag = true, nan = NaN, neg = -1152921504606846979, negzero = -0, nothing = NULL, pi = 3.25, rows = {(k = 1, l = []), (k = 1.5, l = [{-1, -0.5}, ()]), (k = 2, l = ["b", 4611686018427387904, {}])}, s = "héllo\x00", small = 3)`
	v := goldenNested()
	if got := hex.EncodeToString(AppendKey(nil, v)); got != wantKey {
		t.Errorf("AppendKey =\n%s\nwant\n%s", got, wantKey)
	}
	if got := v.String(); got != wantString {
		t.Errorf("String() =\n%s\nwant\n%s", got, wantString)
	}
}

// TestWrongKindPanics passes a value of the wrong kind to every exported
// function that takes a set, tuple or collection and pins the refusal. The
// compact layout reads a string's length and bytes where a set keeps its
// cardinality and elements, so a missing kind check would not fail loudly:
// it would reinterpret the payload.
func TestWrongKindPanics(t *testing.T) {
	set, tup := SetOf(Int(1)), TupleOf(F("a", Int(1)))
	cases := []struct {
		name string
		f    func()
		want string
	}{
		{"Contains", func() { Contains(Str("x"), Int(1)) }, "value: string is not set"},
		{"Union/left", func() { Union(Str("x"), set) }, "value: string is not set"},
		{"Union/right", func() { Union(set, ListOf(Int(1))) }, "value: list is not set"},
		{"Intersect/left", func() { Intersect(tup, set) }, "value: tuple is not set"},
		{"Intersect/right", func() { Intersect(set, Int(1)) }, "value: int is not set"},
		{"Diff/left", func() { Diff(Bool(true), set) }, "value: bool is not set"},
		{"Diff/right", func() { Diff(set, Null) }, "value: null is not set"},
		{"SubsetEq/left", func() { SubsetEq(Str("x"), EmptySet) }, "value: string is not set"},
		{"SubsetEq/right", func() { SubsetEq(EmptySet, Str("abc")) }, "value: string is not set"},
		{"Subset/left", func() { Subset(Str("x"), EmptySet) }, "value: string is not set"},
		{"Subset/right", func() { Subset(EmptySet, Str("abc")) }, "value: string is not set"},
		{"SupersetEq/left", func() { SupersetEq(Float(1), set) }, "value: float is not set"},
		{"SupersetEq/right", func() { SupersetEq(set, ListOf()) }, "value: list is not set"},
		{"Superset/left", func() { Superset(Str("x"), EmptySet) }, "value: string is not set"},
		{"Superset/right", func() { Superset(EmptySet, Str("abc")) }, "value: string is not set"},
		{"Disjoint/left", func() { Disjoint(ListOf(Int(1)), set) }, "value: list is not set"},
		{"Disjoint/right", func() { Disjoint(set, tup) }, "value: tuple is not set"},
		{"UnnestSet/outer", func() { UnnestSet(Str("abc")) }, "value: string is not set"},
		{"UnnestSet/scalar-elem", func() { UnnestSet(SetOf(Int(1))) }, "value: int has no length"},
		{"UnnestSet/list-elem", func() { UnnestSet(SetOf(ListOf(Int(1)))) }, "value: list is not set"},
		{"Fields", func() { Str("abc").Fields() }, "value: string is not tuple"},
		{"Elems", func() { tup.Elems() }, "value: tuple has no elements"},
		{"Elems/string", func() { Str("abc").Elems() }, "value: string has no elements"},
		{"Get", func() { set.Get("a") }, "value: set is not tuple"},
		{"Concat/left", func() { Str("abc").Concat(tup) }, "value: string is not tuple"},
		{"Concat/right", func() { tup.Concat(set) }, "value: set is not tuple"},
		{"Extend", func() { ListOf().Extend("a", Int(1)) }, "value: list is not tuple"},
		{"Drop", func() { Int(1).Drop("a") }, "value: int is not tuple"},
		{"Len", func() { Str("abc").Len() }, "value: string has no length"},
		{"Labels", func() { Bool(false).Labels() }, "value: bool is not tuple"},
	}
	for _, c := range cases {
		if got := panicText(c.f); got != c.want {
			t.Errorf("%s: panic = %v, want %q", c.name, got, c.want)
		}
	}
	for _, kind := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		for _, v := range []Value{Str("abc"), tup, Int(2)} {
			want := fmt.Sprintf("aggregate %s: operand is %s, not a collection", kind, v.Kind())
			if _, err := Aggregate(kind, v); err == nil || err.Error() != want {
				t.Errorf("Aggregate(%s, %s) error = %v, want %q", kind, v, err, want)
			}
		}
	}
}

func panicText(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}
