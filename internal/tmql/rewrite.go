package tmql

import "sort"

// Tables returns the names of every stored extension referenced anywhere in
// e (table references may hide inside subqueries, quantifiers, and
// predicates), sorted and deduplicated. The engine's plan cache uses it to
// key cached plans by the mutation epochs of exactly the tables a query
// depends on.
func Tables(e Expr) []string {
	seen := make(map[string]bool)
	Walk(e, func(n Expr) bool {
		if t, ok := n.(*TableRef); ok {
			seen[t.Name] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Generic rewriting over TM ASTs. All functions build fresh trees (the input
// is never mutated) and strip inferred types — consumers re-bind rewritten
// expressions, so types are recomputed afterwards. The shared worker tracks
// variable bindings in scope so callbacks can respect shadowing; core's
// translation utilities, the flat-join builder's readdressing and the §6
// rewrite rules are built on it.

// Rewrite rebuilds e bottom-up; at each node fn may return a replacement.
// The bound map passed to fn counts enclosing binders per variable name, so
// fn can limit itself to free occurrences.
func Rewrite(e Expr, fn func(Expr, map[string]int) (Expr, bool)) Expr {
	return rewriteIn(e, fn, map[string]int{})
}

// Subst replaces every free occurrence of the variable name in e by repl.
// Binders that rebind name stop the substitution in their scope. repl is
// inserted by reference; callers pass freshly built or immutable expressions.
func Subst(e Expr, name string, repl Expr) Expr {
	return Rewrite(e, func(n Expr, bound map[string]int) (Expr, bool) {
		if v, ok := n.(*Var); ok && v.Name == name && bound[name] == 0 {
			return repl, true
		}
		return nil, false
	})
}

// SubstFieldSel replaces free field selections u.l (u a free variable, not
// shadowed at the site) by repl(u, l) wherever repl returns non-nil. The §6
// rule moving a selection through a projection uses it to replace v.l by the
// expression the projection binds to l.
func SubstFieldSel(e Expr, repl func(varName, label string) Expr) Expr {
	return Rewrite(e, func(n Expr, bound map[string]int) (Expr, bool) {
		if fs, ok := n.(*FieldSel); ok {
			if v, ok := fs.X.(*Var); ok && bound[v.Name] == 0 {
				if r := repl(v.Name, fs.Label); r != nil {
					return r, true
				}
			}
		}
		return nil, false
	})
}

// SplitAnd flattens a right- or left-nested AND tree into its conjuncts; a
// nil expression yields nil.
func SplitAnd(e Expr) []Expr { return split(e, OpAnd) }

// SplitOr flattens a right- or left-nested OR tree into its disjuncts; a
// nil expression yields nil.
func SplitOr(e Expr) []Expr { return split(e, OpOr) }

// split flattens the tree of op at e into its operands in one allocation; a
// nil expression yields nil.
func split(e Expr, op Op) []Expr {
	if e == nil {
		return nil
	}
	return appendSplit(make([]Expr, 0, countSplit(e, op)), e, op)
}

// countSplit counts the operands of the tree of op at e.
func countSplit(e Expr, op Op) int {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return countSplit(b.L, op) + countSplit(b.R, op)
	}
	return 1
}

// appendSplit appends the operands of the tree of op at e onto dst.
func appendSplit(dst []Expr, e Expr, op Op) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return appendSplit(appendSplit(dst, b.L, op), b.R, op)
	}
	return append(dst, e)
}

// JoinAnd rebuilds a conjunction from parts (nil for none).
func JoinAnd(parts []Expr) Expr {
	var out Expr
	for _, p := range parts {
		if out == nil {
			out = p
		} else {
			out = &Binary{Op: OpAnd, L: out, R: p}
		}
	}
	return out
}

func rewriteIn(e Expr, fn func(Expr, map[string]int) (Expr, bool), bound map[string]int) Expr {
	if e == nil {
		return nil
	}
	if repl, ok := fn(e, bound); ok {
		return repl
	}
	switch n := e.(type) {
	case *Lit, *Var, *TableRef:
		return e
	case *FieldSel:
		return &FieldSel{X: rewriteIn(n.X, fn, bound), Label: n.Label}
	case *TupleCons:
		fs := make([]TupleField, len(n.Fields))
		for i, f := range n.Fields {
			fs[i] = TupleField{Label: f.Label, E: rewriteIn(f.E, fn, bound)}
		}
		return &TupleCons{Fields: fs}
	case *SetCons:
		es := make([]Expr, len(n.Elems))
		for i, el := range n.Elems {
			es[i] = rewriteIn(el, fn, bound)
		}
		return &SetCons{Elems: es}
	case *ListCons:
		es := make([]Expr, len(n.Elems))
		for i, el := range n.Elems {
			es[i] = rewriteIn(el, fn, bound)
		}
		return &ListCons{Elems: es}
	case *Binary:
		return &Binary{Op: n.Op, L: rewriteIn(n.L, fn, bound), R: rewriteIn(n.R, fn, bound)}
	case *Unary:
		return &Unary{Op: n.Op, X: rewriteIn(n.X, fn, bound)}
	case *Agg:
		return &Agg{Kind: n.Kind, X: rewriteIn(n.X, fn, bound)}
	case *Quant:
		over := rewriteIn(n.Over, fn, bound)
		bound[n.Var]++
		pred := rewriteIn(n.Pred, fn, bound)
		bound[n.Var]--
		return &Quant{Kind: n.Kind, Var: n.Var, Over: over, Pred: pred}
	case *SFW:
		froms := make([]FromItem, len(n.Froms))
		pushed := make([]string, 0, len(n.Froms))
		for i, f := range n.Froms {
			froms[i] = FromItem{Var: f.Var, Src: rewriteIn(f.Src, fn, bound)}
			bound[f.Var]++
			pushed = append(pushed, f.Var)
		}
		where := rewriteIn(n.Where, fn, bound)
		result := rewriteIn(n.Result, fn, bound)
		for _, v := range pushed {
			bound[v]--
		}
		return &SFW{Result: result, Froms: froms, Where: where}
	case *Let:
		def := rewriteIn(n.Def, fn, bound)
		bound[n.V]++
		body := rewriteIn(n.Body, fn, bound)
		bound[n.V]--
		return &Let{V: n.V, Def: def, Body: body}
	case *Unnest:
		return &Unnest{X: rewriteIn(n.X, fn, bound)}
	}
	return e
}
