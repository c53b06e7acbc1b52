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
// kind only, and re-runs a cached plan with new values substituted (see
// BindSlots). That is correct because no translation or rewrite rule reads a
// slotted value — costs, histograms and index matching read it only as an
// estimate, and compilation runs on the substituted plan:
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

// BindSlots returns e with every slotted literal's value replaced by
// vals[slot-1]. Nodes off the paths to slotted literals are shared and
// inferred types are kept (a slot's kind is part of the shape), so the result
// needs no re-binding; e itself is never mutated.
func BindSlots(e Expr, vals []value.Value) Expr {
	sub := func(x Expr) Expr { return BindSlots(x, vals) }
	switch n := e.(type) {
	case *Lit:
		if n.Slot > 0 {
			return cloneWith(n, func(c *Lit) { c.V = vals[n.Slot-1] })
		}
	case *FieldSel:
		if x := sub(n.X); x != n.X {
			return cloneWith(n, func(c *FieldSel) { c.X = x })
		}
	case *TupleCons:
		var fs []TupleField
		for i, f := range n.Fields {
			if x := sub(f.E); x != f.E {
				if fs == nil {
					fs = append([]TupleField(nil), n.Fields...)
				}
				fs[i].E = x
			}
		}
		if fs != nil {
			return cloneWith(n, func(c *TupleCons) { c.Fields = fs })
		}
	case *SetCons:
		if es := bindSlotsAll(n.Elems, vals); es != nil {
			return cloneWith(n, func(c *SetCons) { c.Elems = es })
		}
	case *ListCons:
		if es := bindSlotsAll(n.Elems, vals); es != nil {
			return cloneWith(n, func(c *ListCons) { c.Elems = es })
		}
	case *Binary:
		if l, r := sub(n.L), sub(n.R); l != n.L || r != n.R {
			return cloneWith(n, func(c *Binary) { c.L, c.R = l, r })
		}
	case *Unary:
		if x := sub(n.X); x != n.X {
			return cloneWith(n, func(c *Unary) { c.X = x })
		}
	case *Agg:
		if x := sub(n.X); x != n.X {
			return cloneWith(n, func(c *Agg) { c.X = x })
		}
	case *Unnest:
		if x := sub(n.X); x != n.X {
			return cloneWith(n, func(c *Unnest) { c.X = x })
		}
	case *Quant:
		if over, pred := sub(n.Over), sub(n.Pred); over != n.Over || pred != n.Pred {
			return cloneWith(n, func(c *Quant) { c.Over, c.Pred = over, pred })
		}
	case *Let:
		if def, body := sub(n.Def), sub(n.Body); def != n.Def || body != n.Body {
			return cloneWith(n, func(c *Let) { c.Def, c.Body = def, body })
		}
	case *SFW:
		var froms []FromItem
		for i, f := range n.Froms {
			if src := sub(f.Src); src != f.Src {
				if froms == nil {
					froms = append([]FromItem(nil), n.Froms...)
				}
				froms[i].Src = src
			}
		}
		if result, where := sub(n.Result), sub(n.Where); froms != nil || result != n.Result || where != n.Where {
			if froms == nil {
				froms = n.Froms
			}
			return cloneWith(n, func(c *SFW) { c.Froms, c.Result, c.Where = froms, result, where })
		}
	}
	return e
}

// bindSlotsAll applies BindSlots to each of es and returns the result in a
// fresh slice, or nil when no element changed.
func bindSlotsAll(es []Expr, vals []value.Value) []Expr {
	var out []Expr
	for i, x := range es {
		if y := BindSlots(x, vals); y != x {
			if out == nil {
				out = append([]Expr(nil), es...)
			}
			out[i] = y
		}
	}
	return out
}

// cloneWith returns a shallow copy of *n with set applied to it.
func cloneWith[T any](n *T, set func(*T)) *T {
	c := *n
	set(&c)
	return &c
}
