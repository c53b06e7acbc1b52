package tmql

import "tmdb/internal/value"

// MarkSlots gives parameter slots to the constants of a freshly bound
// top-level query and returns their values in slot order. A literal gets a
// slot (1, 2, … in pre-order) when it is an int, float or string and one
// operand of a comparison (= <> < <= > >=) whose other operand is a field
// path (x.b, d.address.city); every other literal's slot is cleared. e's
// literals are mutated, so e must be a tree the caller owns, such as Bind's
// output. The algebra builder re-binds every predicate it stores, and the
// binder copies Slot, so slots survive translation.
//
// The engine keys cached plans on Shape, which renders slotted literals by
// kind only, and runs a cached plan for another query of the shape with that
// query's values as args (Lit.Value): the evaluator, compiled expressions,
// index points and range bounds read args[Slot-1] when the plan is compiled,
// and Lit.V keeps the value the shape was planned with. That is correct
// because only the cost model reads a slotted literal's planning value — no
// translation, rewrite or resolution rule does:
//   - core's classifyCountComparison specializes COUNT(…) op k, but there the
//     other operand is an aggregate, so k is never slotted;
//   - the rule dropping σ[true] reads only bool literals, which are never
//     slotted;
//   - IN-lists and set literals are not comparison operands and stay in the
//     shape.
func MarkSlots(e Expr) []value.Value {
	var vals []value.Value
	Walk(e, func(n Expr) bool {
		switch n := n.(type) {
		case *Lit:
			n.Slot = 0
		case *Binary:
			if lit := slottable(n); lit != nil {
				vals = append(vals, lit.V)
				lit.Slot = len(vals)
				return false // the other operand is a field path: no literals
			}
		}
		return true
	})
	return vals
}

// slottable returns b's literal operand when b compares a field path with an
// int, float or string literal, and nil otherwise.
func slottable(b *Binary) *Lit {
	lit, ok := b.R.(*Lit)
	path := b.L
	if !ok {
		lit, ok = b.L.(*Lit)
		path = b.R
	}
	if !ok || !b.Op.IsComparison() || !isFieldPath(path) {
		return nil
	}
	if k := lit.V.Kind(); k == value.KindInt || k == value.KindFloat || k == value.KindString {
		return lit
	}
	return nil
}

// isFieldPath reports whether e is a chain of field selections on a
// variable.
func isFieldPath(e Expr) bool {
	for {
		fs, ok := e.(*FieldSel)
		if !ok {
			return false
		}
		if _, ok := fs.X.(*Var); ok {
			return true
		}
		e = fs.X
	}
}
