package core

import (
	"tmdb/internal/tmql"
)

// Rewriting utilities over tmql ASTs, thin wrappers around the generic
// rewriter in internal/tmql. All functions build fresh trees (the input is never mutated)
// and strip inferred types — the algebra builder re-binds every expression
// it receives, so types are recomputed after rewriting.

// SubstVar replaces every free occurrence of the variable name in e by repl.
// Binders that rebind name stop the substitution in their scope. repl is
// inserted by reference; callers pass freshly built or immutable expressions.
func SubstVar(e tmql.Expr, name string, repl tmql.Expr) tmql.Expr {
	return tmql.Subst(e, name, repl)
}

// ReplaceNode replaces the node target (by pointer identity) with repl.
func ReplaceNode(e tmql.Expr, target, repl tmql.Expr) tmql.Expr {
	return tmql.Rewrite(e, func(n tmql.Expr, _ map[string]int) (tmql.Expr, bool) {
		if n == target {
			return repl, true
		}
		return nil, false
	})
}

// InlineLets substitutes WITH-bound names by their definitions, normalizing
// `P(x, z) WITH z = Q` to `P(x, Q)` — the form the translator pattern-matches
// (the paper's WITH is purely notational, §4).
func InlineLets(e tmql.Expr) tmql.Expr {
	for {
		let, ok := e.(*tmql.Let)
		if !ok {
			return e
		}
		e = SubstVar(let.Body, let.V, InlineLets(let.Def))
	}
}

// fieldOf builds the expression varName.label.
func fieldOf(varName, label string) tmql.Expr {
	return &tmql.FieldSel{X: &tmql.Var{Name: varName}, Label: label}
}
