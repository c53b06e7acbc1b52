// Package value implements the complex-object value model of TM: basic
// values (booleans, integers, floats, strings), labeled tuples, duplicate-free
// sets, and lists, nested to arbitrary depth.
//
// Values are immutable after construction. Sets are kept in a canonical form
// (sorted by the total order Compare, duplicates removed), which makes deep
// equality, hashing, and the set-comparison operators of TM (⊆, ⊂, ⊇, ⊃, ∩,
// ∪, −) cheap and deterministic. Tuples keep their fields sorted by label so
// that two tuples with the same label→value mapping are identical regardless
// of construction order, matching TM's semantics where tuple types are
// unordered label sets.
package value

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind discriminates the variants of a Value.
type Kind uint8

// The kinds of TM values. KindNull is not a TM concept; it exists only so the
// relational outerjoin baseline (Ganski–Wong repair) can be expressed, as the
// paper does when comparing against relational techniques.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTuple
	KindSet
	KindList
)

// String returns the kind name as used in error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	case KindSet:
		return "set"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Field is one labeled component of a tuple value.
type Field struct {
	Label string
	V     Value
}

// Value is a TM complex-object value. The zero Value is Null.
//
// A Value is three words: the kind, one payload word and one pointer. Scalars
// live in w; a string, tuple, set or list keeps its length in w and its first
// byte, Field or element in p, and the accessors str, fields and elems
// rebuild the Go string or slice from the two. Those accessors read w as a
// length whatever the kind, so each may be called only after a kind check:
// elems on a string would read its bytes as Values.
type Value struct {
	_    [0]func() // not comparable: == would compare payload pointers
	kind Kind
	w    uint64         // bool 0/1, int64 bits, float64 bits; the length for string/tuple/set/list
	p    unsafe.Pointer // string bytes, first Field (tuple), first Value (set/list); nil for scalars and empties
}

// Null is the NULL value used only by the relational outerjoin baseline.
var Null = Value{kind: KindNull}

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, w: 1}
	}
	return Value{kind: KindBool}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, w: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, w: math.Float64bits(f)} }

// Str returns a string value.
func Str(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, w: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// tupleValue wraps canonical fields as a tuple, aliasing the slice.
func tupleValue(fs []Field) Value {
	if len(fs) == 0 {
		return Value{kind: KindTuple}
	}
	return Value{kind: KindTuple, w: uint64(len(fs)), p: unsafe.Pointer(unsafe.SliceData(fs))}
}

// elemsValue wraps es as a set (canonical es) or list, aliasing the slice.
func elemsValue(k Kind, es []Value) Value {
	if len(es) == 0 {
		return Value{kind: k}
	}
	return Value{kind: k, w: uint64(len(es)), p: unsafe.Pointer(unsafe.SliceData(es))}
}

// The payload accessors. Each is valid only for its kinds (see Value).

func (v Value) i() int64        { return int64(v.w) }
func (v Value) f() float64      { return math.Float64frombits(v.w) }
func (v Value) str() string     { return unsafe.String((*byte)(v.p), int(v.w)) }
func (v Value) fields() []Field { return unsafe.Slice((*Field)(v.p), int(v.w)) }
func (v Value) elems() []Value  { return unsafe.Slice((*Value)(v.p), int(v.w)) }

// True and False are the two boolean values.
var (
	True  = Bool(true)
	False = Bool(false)
)

// TupleOf builds a tuple value from the given fields. Fields are copied and
// canonicalized (sorted by label). It panics on duplicate labels: tuple types
// in TM are label→type maps, so duplicates are a construction error, not a
// data error.
func TupleOf(fields ...Field) Value {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	slices.SortFunc(fs, func(a, b Field) int { return cmp.Compare(a.Label, b.Label) })
	for i := 1; i < len(fs); i++ {
		if fs[i].Label == fs[i-1].Label {
			panic("value: duplicate tuple label " + fs[i].Label)
		}
	}
	return tupleValue(fs)
}

// F is shorthand for constructing a tuple field.
func F(label string, v Value) Field { return Field{Label: label, V: v} }

// SetOf builds a set value from the given elements, canonicalizing (sorting
// and removing duplicates). The input slice is not retained.
func SetOf(elems ...Value) Value {
	es := make([]Value, len(elems))
	copy(es, elems)
	return setFromOwned(es)
}

// setFromOwned canonicalizes es in place and wraps it as a set. The caller
// must not use es afterwards.
func setFromOwned(es []Value) Value {
	slices.SortFunc(es, Compare)
	out := es[:0]
	for i, e := range es {
		if i == 0 || Compare(e, out[len(out)-1]) != 0 {
			out = append(out, e)
		}
	}
	return elemsValue(KindSet, out)
}

// CanonicalSet wraps es as a set without copying or sorting. The caller
// vouches that es is already in canonical order (strictly ascending under
// Compare, hence duplicate-free) and is never modified again: the set
// aliases the slice. Storage uses it to hand out a table's rows, one
// immutable contiguous slice, as its set view; anything else wants SetOf.
func CanonicalSet(es []Value) Value { return elemsValue(KindSet, es) }

// CanonicalTuple wraps fs as a tuple without copying or sorting. The caller
// vouches that fs is already canonical (labels strictly ascending, hence
// unique) and is never modified again: the tuple aliases the slice. Compiled
// projections use it, having sorted their labels once at compile time;
// anything else wants TupleOf.
func CanonicalTuple(fs []Field) Value { return tupleValue(fs) }

// EmptySet is the empty set value — in TM the empty set is part of the model,
// which is precisely why the nest join needs no NULLs.
var EmptySet = Value{kind: KindSet}

// ListOf builds a list value preserving order and duplicates.
func ListOf(elems ...Value) Value {
	es := make([]Value, len(elems))
	copy(es, elems)
	return elemsValue(KindList, es)
}

// Kind reports the variant of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the NULL value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it panics if v is not a bool.
func (v Value) AsBool() bool {
	v.mustBe(KindBool)
	return v.w != 0
}

// AsInt returns the integer payload; it panics if v is not an int.
func (v Value) AsInt() int64 {
	v.mustBe(KindInt)
	return v.i()
}

// AsFloat returns the float payload, widening ints; it panics otherwise.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt:
		return float64(v.i())
	}
	panic("value: " + v.kind.String() + " is not numeric")
}

// AsString returns the string payload; it panics if v is not a string.
func (v Value) AsString() string {
	v.mustBe(KindString)
	return v.str()
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic("value: " + v.kind.String() + " is not " + k.String())
	}
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Fields returns the tuple fields in canonical (label-sorted) order. The
// returned slice must not be modified. It panics if v is not a tuple.
func (v Value) Fields() []Field {
	v.mustBe(KindTuple)
	return v.fields()
}

// Arity returns the number of fields of a tuple.
func (v Value) Arity() int {
	v.mustBe(KindTuple)
	return int(v.w)
}

// Get returns the field value for label, and whether the label exists. It
// panics if v is not a tuple. Tuples are narrow, so it scans the labels
// linearly; string equalities are cheaper than a binary search's closure.
func (v Value) Get(label string) (Value, bool) {
	v.mustBe(KindTuple)
	fs := v.fields()
	for i := range fs {
		if fs[i].Label == label {
			return fs[i].V, true
		}
	}
	return Value{}, false
}

// MustGet returns the field value for label and panics if absent.
func (v Value) MustGet(label string) Value {
	f, ok := v.Get(label)
	if !ok {
		panic("value: tuple has no field " + label)
	}
	return f
}

// Labels returns the labels of a tuple in canonical order.
func (v Value) Labels() []string {
	v.mustBe(KindTuple)
	fs := v.fields()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Label
	}
	return out
}

// Concat returns the tuple concatenation v ++ w used by the join operators:
// the tuple holding all fields of both. It panics if either is not a tuple or
// if labels collide — the paper requires the nest-join label "not occurring on
// the top level of X", and the algebra validator enforces that statically.
//
// Both field lists are already sorted, so the result is their merge: one
// allocation, no sort.
func (v Value) Concat(w Value) Value {
	v.mustBe(KindTuple)
	w.mustBe(KindTuple)
	a, b := v.fields(), w.fields()
	fs := make([]Field, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Label < b[0].Label:
			fs, a = append(fs, a[0]), a[1:]
		case a[0].Label > b[0].Label:
			fs, b = append(fs, b[0]), b[1:]
		default:
			panic("value: duplicate tuple label " + a[0].Label)
		}
	}
	fs = append(fs, a...)
	return tupleValue(append(fs, b...))
}

// Extend returns v ++ (label = x), the nest-join extension of a tuple with a
// single new field, inserted at its sorted position (one allocation, no
// sort). It panics if v is not a tuple or already has the label.
func (v Value) Extend(label string, x Value) Value {
	v.mustBe(KindTuple)
	old := v.fields()
	i := 0
	for i < len(old) && old[i].Label < label {
		i++
	}
	if i < len(old) && old[i].Label == label {
		panic("value: duplicate tuple label " + label)
	}
	fs := make([]Field, len(old)+1)
	copy(fs, old[:i])
	fs[i] = Field{Label: label, V: x}
	copy(fs[i+1:], old[i:])
	return tupleValue(fs)
}

// Drop returns the tuple without the given labels.
func (v Value) Drop(labels ...string) Value {
	v.mustBe(KindTuple)
	drop := make(map[string]bool, len(labels))
	for _, l := range labels {
		drop[l] = true
	}
	fs := make([]Field, 0, v.w)
	for _, f := range v.fields() {
		if !drop[f.Label] {
			fs = append(fs, f)
		}
	}
	return tupleValue(fs)
}

// Elems returns the elements of a set (in canonical order) or list (in list
// order). The returned slice must not be modified.
func (v Value) Elems() []Value {
	if v.kind != KindSet && v.kind != KindList {
		panic("value: " + v.kind.String() + " has no elements")
	}
	return v.elems()
}

// Len returns the number of elements of a set or list, or fields of a tuple.
func (v Value) Len() int {
	switch v.kind {
	case KindSet, KindList, KindTuple:
		return int(v.w)
	}
	panic("value: " + v.kind.String() + " has no length")
}

// IsEmptySet reports whether v is a set with no elements.
func (v Value) IsEmptySet() bool { return v.kind == KindSet && v.w == 0 }

// String renders the value in TM-ish syntax: tuples as ⟨a = 1, b = {…}⟩
// printed with parentheses, sets in braces, lists in brackets.
func (v Value) String() string {
	var sb strings.Builder
	v.write(&sb)
	return sb.String()
}

func (v Value) write(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("NULL")
	case KindBool:
		if v.w != 0 {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i(), 10))
	case KindFloat:
		sb.WriteString(strconv.FormatFloat(v.f(), 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.str()))
	case KindTuple:
		sb.WriteByte('(')
		for i, f := range v.fields() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Label)
			sb.WriteString(" = ")
			f.V.write(sb)
		}
		sb.WriteByte(')')
	case KindSet:
		sb.WriteByte('{')
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.write(sb)
		}
		sb.WriteByte('}')
	case KindList:
		sb.WriteByte('[')
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteString(", ")
			}
			e.write(sb)
		}
		sb.WriteByte(']')
	}
}

// Compare defines the canonical total order over all values. Values of
// different kinds order by kind; within a kind the order is the natural one
// (lexicographic for tuples by label/value pairs, for sets/lists elementwise).
// Ints and floats compare numerically against each other so that 1 = 1.0, as
// TM treats INT as a subtype of REAL; the comparison is exact, so an int
// beyond 2^53 never equals a float it merely rounds to.
func Compare(a, b Value) int {
	ka, kb := a.kind, b.kind
	// Numeric cross-kind comparison.
	if a.IsNumeric() && b.IsNumeric() && ka != kb {
		if ka == KindInt {
			return compareIntFloat(a.i(), b.f())
		}
		return -compareIntFloat(b.i(), a.f())
	}
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindNull:
		return 0
	case KindBool:
		// false (0) orders before true (1).
		return cmp.Compare(a.w, b.w)
	case KindInt:
		return cmp.Compare(a.i(), b.i())
	case KindFloat:
		return compareFloat(a.f(), b.f())
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindTuple:
		af, bf := a.fields(), b.fields()
		n := min(len(af), len(bf))
		for i := 0; i < n; i++ {
			if c := strings.Compare(af[i].Label, bf[i].Label); c != 0 {
				return c
			}
			if c := Compare(af[i].V, bf[i].V); c != 0 {
				return c
			}
		}
		return len(af) - len(bf)
	case KindSet, KindList:
		ae, be := a.elems(), b.elems()
		n := min(len(ae), len(be))
		for i := 0; i < n; i++ {
			if c := Compare(ae[i], be[i]); c != 0 {
				return c
			}
		}
		return len(ae) - len(be)
	}
	panic("value: unreachable kind in Compare")
}

// compareIntFloat compares i with f exactly: through float64 first, and on a
// tie — f is then integral and equal to i rounded — by the integers
// themselves. float64(MaxInt64) rounds up to 2^63, which no int64 reaches.
func compareIntFloat(i int64, f float64) int {
	if c := compareFloat(float64(i), f); c != 0 {
		return c
	}
	if f >= 0x1p63 {
		return -1
	}
	return cmp.Compare(i, int64(f))
}

func compareFloat(a, b float64) int {
	// NaN sorts before everything and equals itself so the order stays total.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports deep value equality, i.e. Compare(a,b) == 0.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports Compare(a,b) < 0.
func Less(a, b Value) bool { return Compare(a, b) < 0 }
