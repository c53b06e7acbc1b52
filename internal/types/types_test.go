package types

import (
	"testing"

	"tmdb/internal/value"
)

func TestStringRendering(t *testing.T) {
	cases := []struct {
		t    *Type
		want string
	}{
		{Bool, "BOOL"},
		{Int, "INT"},
		{Float, "REAL"},
		{String, "STRING"},
		{Any, "ANY"},
		{Class("Employee"), "Employee"},
		{SetOf(Int), "P INT"},
		{ListOf(String), "L STRING"},
		{Tuple(F("b", Int), F("a", String)), "(a : STRING, b : INT)"},
		{SetOf(Tuple(F("x", SetOf(Int)))), "P (x : P INT)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEqualAndAssignable(t *testing.T) {
	tup := Tuple(F("a", Int), F("b", SetOf(String)))
	same := Tuple(F("b", SetOf(String)), F("a", Int))
	if !Equal(tup, same) {
		t.Error("field order should not matter")
	}
	if Equal(tup, Tuple(F("a", Int))) {
		t.Error("different arity should differ")
	}
	if Equal(SetOf(Int), ListOf(Int)) {
		t.Error("set vs list")
	}
	if !Equal(Class("C"), Class("C")) || Equal(Class("C"), Class("D")) {
		t.Error("class equality by name")
	}

	if !AssignableTo(Int, Float) {
		t.Error("INT ⊑ REAL")
	}
	if AssignableTo(Float, Int) {
		t.Error("REAL ⋢ INT")
	}
	if !AssignableTo(SetOf(Int), SetOf(Float)) {
		t.Error("covariant set widening")
	}
	if !AssignableTo(Any, Int) || !AssignableTo(Int, Any) {
		t.Error("Any is a wildcard")
	}
	if AssignableTo(Tuple(F("a", Int)), Tuple(F("b", Int))) {
		t.Error("label mismatch must fail")
	}
}

func TestComparableAndUnify(t *testing.T) {
	if !Comparable(Int, Float) || !Comparable(String, String) {
		t.Error("comparable basics")
	}
	if Comparable(Int, String) {
		t.Error("INT vs STRING not comparable")
	}
	if got := Unify(Int, Float); got != Float {
		t.Errorf("Unify(INT, REAL) = %v", got)
	}
	if got := Unify(SetOf(Int), SetOf(Float)); !Equal(got, SetOf(Float)) {
		t.Errorf("Unify sets = %v", got)
	}
	if got := Unify(Int, String); got != nil {
		t.Errorf("Unify(INT, STRING) = %v", got)
	}
	if got := Unify(Any, String); got != String {
		t.Errorf("Unify(Any, STRING) = %v", got)
	}
	got := Unify(Tuple(F("a", Int)), Tuple(F("a", Float)))
	if !Equal(got, Tuple(F("a", Float))) {
		t.Errorf("Unify tuples = %v", got)
	}
	if Unify(Tuple(F("a", Int)), Tuple(F("b", Int))) != nil {
		t.Error("Unify mismatched labels should fail")
	}
	if Unify(SetOf(Int), ListOf(Int)) != nil {
		t.Error("Unify set/list should fail")
	}
	if got := Unify(Class("C"), Class("C")); got == nil || got.Name != "C" {
		t.Error("Unify same classes")
	}
	if Unify(Class("C"), Class("D")) != nil {
		t.Error("Unify distinct classes should fail")
	}
}

func TestFieldLookup(t *testing.T) {
	tup := Tuple(F("a", Int), F("b", String))
	if ft, ok := tup.Field("b"); !ok || ft != String {
		t.Errorf("Field(b) = %v, %v", ft, ok)
	}
	if _, ok := tup.Field("z"); ok {
		t.Error("missing field should not be found")
	}
	if _, ok := Int.Field("a"); ok {
		t.Error("Field on non-tuple")
	}
}

func TestTypeOf(t *testing.T) {
	v := value.TupleOf(
		value.F("a", value.Int(1)),
		value.F("s", value.SetOf(value.Int(1), value.Int(2))),
		value.F("l", value.ListOf(value.Str("x"))),
	)
	got := TypeOf(v)
	want := Tuple(F("a", Int), F("s", SetOf(Int)), F("l", ListOf(String)))
	if !Equal(got, want) {
		t.Errorf("TypeOf = %v, want %v", got, want)
	}
	if got := TypeOf(value.EmptySet); got.Kind != KSet || got.Elem != Any {
		t.Errorf("TypeOf(∅) = %v", got)
	}
	// Mixed numeric set unifies to REAL.
	if got := TypeOf(value.SetOf(value.Int(1), value.Float(2.5))); !Equal(got, SetOf(Float)) {
		t.Errorf("TypeOf mixed numeric = %v", got)
	}
	// Irreconcilable mix degrades to Any.
	if got := TypeOf(value.SetOf(value.Int(1), value.Str("x"))); got.Elem != Any {
		t.Errorf("TypeOf mixed = %v", got)
	}
}

func TestCheck(t *testing.T) {
	tup := Tuple(F("a", Int), F("s", SetOf(Int)))
	v := value.TupleOf(value.F("a", value.Int(1)), value.F("s", value.SetOf(value.Int(2))))
	if !Check(v, tup) {
		t.Error("value should check against its type")
	}
	if Check(v, Tuple(F("a", Int))) {
		t.Error("extra field should fail arity check")
	}
	if !Check(value.Int(1), Float) {
		t.Error("INT value conforms to REAL")
	}
	if Check(value.Float(1.5), Int) {
		t.Error("REAL value does not conform to INT")
	}
	if !Check(value.EmptySet, SetOf(Tuple(F("a", Int)))) {
		t.Error("∅ conforms to any set type")
	}
	if Check(value.ListOf(value.Int(1)), SetOf(Int)) {
		t.Error("list is not a set")
	}
	if !Check(v, Class("Emp")) {
		t.Error("unresolved class ref accepts tuples")
	}
	if !Check(value.Null, Any) {
		t.Error("Any accepts everything")
	}
}

func TestZeroOf(t *testing.T) {
	tt := Tuple(F("a", Int), F("s", SetOf(Int)), F("n", String), F("f", Float), F("b", Bool), F("l", ListOf(Int)))
	z := ZeroOf(tt)
	if !Check(z, tt) {
		t.Errorf("ZeroOf does not typecheck: %s vs %s", z, tt)
	}
	if z.MustGet("a").AsInt() != 0 || !z.MustGet("s").IsEmptySet() {
		t.Errorf("ZeroOf = %s", z)
	}
	if !ZeroOf(Any).IsNull() {
		t.Error("ZeroOf(Any) should be NULL")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Tuple(F("a", Int), F("a", Int))
}

// ZeroOf returns a canonical zero value of the type, used by generators and
// the outerjoin baseline's NULL padding at typed positions.
func ZeroOf(t *Type) value.Value {
	switch t.Kind {
	case KBool:
		return value.False
	case KInt:
		return value.Int(0)
	case KFloat:
		return value.Float(0)
	case KString:
		return value.Str("")
	case KSet:
		return value.EmptySet
	case KList:
		return value.ListOf()
	case KTuple:
		fs := make([]value.Field, 0, len(t.Fields))
		for _, f := range t.Fields {
			fs = append(fs, value.F(f.Label, ZeroOf(f.Type)))
		}
		return value.TupleOf(fs...)
	default:
		return value.Null
	}
}
