package value

// Set algebra on canonical set values. All operators exploit the sorted
// canonical representation, giving linear-time merges — these back the TM
// operators ∪, ∩, −, ⊆, ⊂, ⊇, ⊃, ∈ used in predicates between query blocks.

// Contains reports x ∈ s. s must be a set; binary search over the canonical
// order makes membership O(log n).
func Contains(s, x Value) bool {
	s.mustBe(KindSet)
	es := s.elems()
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(es[mid], x) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(es) && Compare(es[lo], x) == 0
}

// Union returns a ∪ b.
func Union(a, b Value) Value {
	a.mustBe(KindSet)
	b.mustBe(KindSet)
	ae, be := a.elems(), b.elems()
	out := make([]Value, 0, len(ae)+len(be))
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch c := Compare(ae[i], be[j]); {
		case c < 0:
			out = append(out, ae[i])
			i++
		case c > 0:
			out = append(out, be[j])
			j++
		default:
			out = append(out, ae[i])
			i++
			j++
		}
	}
	out = append(out, ae[i:]...)
	out = append(out, be[j:]...)
	return elemsValue(KindSet, out)
}

// Intersect returns a ∩ b.
func Intersect(a, b Value) Value {
	a.mustBe(KindSet)
	b.mustBe(KindSet)
	ae, be := a.elems(), b.elems()
	var out []Value
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch c := Compare(ae[i], be[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, ae[i])
			i++
			j++
		}
	}
	return elemsValue(KindSet, out)
}

// Diff returns a − b.
func Diff(a, b Value) Value {
	a.mustBe(KindSet)
	b.mustBe(KindSet)
	ae, be := a.elems(), b.elems()
	out := make([]Value, 0, len(ae))
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch c := Compare(ae[i], be[j]); {
		case c < 0:
			out = append(out, ae[i])
			i++
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, ae[i:]...)
	return elemsValue(KindSet, out)
}

// SubsetEq reports a ⊆ b.
func SubsetEq(a, b Value) bool {
	a.mustBe(KindSet)
	b.mustBe(KindSet)
	ae, be := a.elems(), b.elems()
	if len(ae) > len(be) {
		return false
	}
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch c := Compare(ae[i], be[j]); {
		case c < 0:
			return false
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	return i == len(ae)
}

// Subset reports a ⊂ b (proper subset).
func Subset(a, b Value) bool {
	a.mustBe(KindSet)
	b.mustBe(KindSet)
	return a.w < b.w && SubsetEq(a, b)
}

// SupersetEq reports a ⊇ b.
func SupersetEq(a, b Value) bool { return SubsetEq(b, a) }

// Superset reports a ⊃ b (proper superset).
func Superset(a, b Value) bool { return Subset(b, a) }

// SetBuilder accumulates elements and produces a canonical set. It is the
// building block of the nest join, ν, and the evaluator's SFW loop: elements
// arrive in arbitrary order and possibly duplicated; Build canonicalizes once.
type SetBuilder struct {
	elems []Value
}

// NewSetBuilder returns a builder with capacity hint n.
func NewSetBuilder(n int) *SetBuilder {
	return &SetBuilder{elems: make([]Value, 0, n)}
}

// Add appends an element (duplicates allowed; removed at Build).
func (b *SetBuilder) Add(v Value) { b.elems = append(b.elems, v) }

// Build canonicalizes and returns the set. The builder is reset and may be
// reused.
func (b *SetBuilder) Build() Value {
	s := setFromOwned(b.elems)
	b.elems = nil
	return s
}

// UnnestSet implements UNNEST(S) = ⋃{ s | s ∈ S } for a set of sets, the
// operator the paper uses to collapse SELECT-clause nesting (§5).
func UnnestSet(s Value) Value {
	s.mustBe(KindSet)
	es := s.elems()
	n := 0
	for _, e := range es {
		n += e.Len()
	}
	b := NewSetBuilder(n)
	for _, e := range es {
		e.mustBe(KindSet)
		for _, x := range e.elems() {
			b.Add(x)
		}
	}
	return b.Build()
}
