// Package types implements the TM type system used by the binder and the
// algebra validator: basic types (BOOL, INT, REAL, STRING), labeled tuple
// types, set and list types, and named references to sorts and classes.
//
// TM treats INT as a subtype of REAL; beyond that the paper needs no
// inheritance, so AssignableTo implements only numeric widening.
package types

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tmdb/internal/value"
)

// Kind discriminates the type variants.
type Kind uint8

// The kinds of TM types.
const (
	KBool Kind = iota
	KInt
	KFloat
	KString
	KTuple
	KSet
	KList
	KClass // reference to a class; structurally its extension's element type
	KAny   // top type used by the binder before inference completes
)

// Field is one labeled component of a tuple type.
type Field struct {
	Label string
	Type  *Type
}

// Type is a TM type. Types are interned per construction and treated as
// immutable.
type Type struct {
	Kind   Kind
	Elem   *Type   // KSet, KList
	Fields []Field // KTuple, sorted by label
	Name   string  // KClass: class name
}

// Singleton basic types.
var (
	Bool   = &Type{Kind: KBool}
	Int    = &Type{Kind: KInt}
	Float  = &Type{Kind: KFloat}
	String = &Type{Kind: KString}
	Any    = &Type{Kind: KAny}
)

// Tuple constructs a tuple type; fields are canonicalized by label.
func Tuple(fields ...Field) *Type {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	slices.SortFunc(fs, func(a, b Field) int { return cmp.Compare(a.Label, b.Label) })
	for i := 1; i < len(fs); i++ {
		if fs[i].Label == fs[i-1].Label {
			panic("types: duplicate tuple label " + fs[i].Label)
		}
	}
	return &Type{Kind: KTuple, Fields: fs}
}

// F is shorthand for a tuple type field.
func F(label string, t *Type) Field { return Field{Label: label, Type: t} }

// SetOf constructs the type {elem}.
func SetOf(elem *Type) *Type { return &Type{Kind: KSet, Elem: elem} }

// ListOf constructs the type [elem].
func ListOf(elem *Type) *Type { return &Type{Kind: KList, Elem: elem} }

// Class constructs a named class reference type.
func Class(name string) *Type { return &Type{Kind: KClass, Name: name} }

// IsNumeric reports whether t is INT or REAL.
func (t *Type) IsNumeric() bool { return t.Kind == KInt || t.Kind == KFloat }

// IsCollection reports whether t is a set or list type.
func (t *Type) IsCollection() bool { return t.Kind == KSet || t.Kind == KList }

// Field returns the type of the labeled field of a tuple type.
func (t *Type) Field(label string) (*Type, bool) {
	if t.Kind != KTuple {
		return nil, false
	}
	i := sort.Search(len(t.Fields), func(i int) bool { return t.Fields[i].Label >= label })
	if i < len(t.Fields) && t.Fields[i].Label == label {
		return t.Fields[i].Type, true
	}
	return nil, false
}

// String renders the type in TM-ish notation.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KBool:
		return "BOOL"
	case KInt:
		return "INT"
	case KFloat:
		return "REAL"
	case KString:
		return "STRING"
	case KAny:
		return "ANY"
	case KClass:
		return t.Name
	case KSet:
		return "P " + t.Elem.String()
	case KList:
		return "L " + t.Elem.String()
	case KTuple:
		var sb strings.Builder
		sb.WriteByte('(')
		for i, f := range t.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Label)
			sb.WriteString(" : ")
			sb.WriteString(f.Type.String())
		}
		sb.WriteByte(')')
		return sb.String()
	}
	return fmt.Sprintf("type(%d)", t.Kind)
}

// Equal reports structural type equality. Class references compare by name.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KBool, KInt, KFloat, KString, KAny:
		return true
	case KClass:
		return a.Name == b.Name
	case KSet, KList:
		return Equal(a.Elem, b.Elem)
	case KTuple:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Label != b.Fields[i].Label || !Equal(a.Fields[i].Type, b.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

// AssignableTo reports whether a value of type src may be used where dst is
// expected: structural equality modulo INT ⊑ REAL widening and the Any
// wildcard.
func AssignableTo(src, dst *Type) bool {
	if src == nil || dst == nil {
		return false
	}
	if src.Kind == KAny || dst.Kind == KAny {
		return true
	}
	if src.Kind == KInt && dst.Kind == KFloat {
		return true
	}
	if src.Kind != dst.Kind {
		return false
	}
	switch src.Kind {
	case KSet, KList:
		return AssignableTo(src.Elem, dst.Elem)
	case KTuple:
		if len(src.Fields) != len(dst.Fields) {
			return false
		}
		for i := range src.Fields {
			if src.Fields[i].Label != dst.Fields[i].Label ||
				!AssignableTo(src.Fields[i].Type, dst.Fields[i].Type) {
				return false
			}
		}
		return true
	case KClass:
		return src.Name == dst.Name
	}
	return true
}

// Comparable reports whether values of the two types may be compared with
// =, <, etc.: structurally equal types modulo numeric widening, with Any
// acting as a wildcard at any depth (so ∅ : P ANY compares with any set).
func Comparable(a, b *Type) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Kind == KAny || b.Kind == KAny {
		return true
	}
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KSet, KList:
		return Comparable(a.Elem, b.Elem)
	case KTuple:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Label != b.Fields[i].Label ||
				!Comparable(a.Fields[i].Type, b.Fields[i].Type) {
				return false
			}
		}
		return true
	case KClass:
		return a.Name == b.Name
	}
	return true
}

// Unify returns the least common type of a and b (numeric widening, Any
// absorbing), or nil if none exists. Used to type set literals and UNION.
func Unify(a, b *Type) *Type {
	if a == nil || b == nil {
		return nil
	}
	if a.Kind == KAny {
		return b
	}
	if b.Kind == KAny {
		return a
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.Kind == KFloat || b.Kind == KFloat {
			return Float
		}
		return Int
	}
	if a.Kind != b.Kind {
		return nil
	}
	switch a.Kind {
	case KSet:
		if e := Unify(a.Elem, b.Elem); e != nil {
			return SetOf(e)
		}
		return nil
	case KList:
		if e := Unify(a.Elem, b.Elem); e != nil {
			return ListOf(e)
		}
		return nil
	case KTuple:
		if len(a.Fields) != len(b.Fields) {
			return nil
		}
		fs := make([]Field, len(a.Fields))
		for i := range a.Fields {
			if a.Fields[i].Label != b.Fields[i].Label {
				return nil
			}
			e := Unify(a.Fields[i].Type, b.Fields[i].Type)
			if e == nil {
				return nil
			}
			fs[i] = Field{Label: a.Fields[i].Label, Type: e}
		}
		return &Type{Kind: KTuple, Fields: fs}
	case KClass:
		if a.Name == b.Name {
			return a
		}
		return nil
	}
	if Equal(a, b) {
		return a
	}
	return nil
}

// TypeOf infers the most specific type of a runtime value. Sets and lists of
// mixed element types unify; an empty collection gets element type Any.
func TypeOf(v value.Value) *Type {
	switch v.Kind() {
	case value.KindBool:
		return Bool
	case value.KindInt:
		return Int
	case value.KindFloat:
		return Float
	case value.KindString:
		return String
	case value.KindNull:
		return Any
	case value.KindTuple:
		fs := make([]Field, 0, v.Arity())
		for _, f := range v.Fields() {
			fs = append(fs, Field{Label: f.Label, Type: TypeOf(f.V)})
		}
		return &Type{Kind: KTuple, Fields: fs}
	case value.KindSet, value.KindList:
		elem := Any
		for _, e := range v.Elems() {
			et := TypeOf(e)
			if u := Unify(elem, et); u != nil {
				elem = u
			} else {
				elem = Any
				break
			}
		}
		if v.Kind() == value.KindSet {
			return SetOf(elem)
		}
		return ListOf(elem)
	}
	return Any
}

// Check reports whether runtime value v conforms to type t (with class
// references resolved by the caller beforehand; unresolved class refs accept
// any tuple).
func Check(v value.Value, t *Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KAny:
		return true
	case KBool:
		return v.Kind() == value.KindBool
	case KInt:
		return v.Kind() == value.KindInt
	case KFloat:
		return v.IsNumeric()
	case KString:
		return v.Kind() == value.KindString
	case KClass:
		return v.Kind() == value.KindTuple
	case KSet:
		if v.Kind() != value.KindSet {
			return false
		}
		for _, e := range v.Elems() {
			if !Check(e, t.Elem) {
				return false
			}
		}
		return true
	case KList:
		if v.Kind() != value.KindList {
			return false
		}
		for _, e := range v.Elems() {
			if !Check(e, t.Elem) {
				return false
			}
		}
		return true
	case KTuple:
		if v.Kind() != value.KindTuple {
			return false
		}
		if v.Arity() != len(t.Fields) {
			return false
		}
		for _, f := range t.Fields {
			fv, ok := v.Get(f.Label)
			if !ok || !Check(fv, f.Type) {
				return false
			}
		}
		return true
	}
	return false
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
