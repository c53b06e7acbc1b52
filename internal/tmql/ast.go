package tmql

import (
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Expr is a TM expression AST node. Nodes carry their source position and,
// after binding, their inferred type.
type Expr interface {
	Pos() Pos
	// Type returns the type inferred by the binder, or nil before binding.
	Type() *types.Type
	isExpr()
}

type exprBase struct {
	pos Pos
	typ *types.Type
}

func (b *exprBase) Pos() Pos              { return b.pos }
func (b *exprBase) Type() *types.Type     { return b.typ }
func (b *exprBase) setType(t *types.Type) { b.typ = t }
func (b *exprBase) isExpr()               {}

// typed lets the binder annotate nodes without a type switch.
type typed interface{ setType(*types.Type) }

// Lit is a literal constant (int, float, string, bool). Slot is the
// literal's parameter slot (1-based, see MarkSlots); 0 means the constant is
// part of the query's shape.
type Lit struct {
	exprBase
	V    value.Value
	Slot int
}

// Var is a name: a bound iteration variable, a WITH-bound local, or (resolved
// by the binder) a class-extension reference, which is rewritten to TableRef.
type Var struct {
	exprBase
	Name string
}

// TableRef is a resolved reference to a class extension (a stored table).
// Produced by the binder; never by the parser.
type TableRef struct {
	exprBase
	Name string // extension name, e.g. "EMP"
}

// FieldSel is field selection x.a (possibly chained: d.address.city parses as
// FieldSel(FieldSel(Var d, address), city)).
type FieldSel struct {
	exprBase
	X     Expr
	Label string
}

// TupleField is one labeled component of a tuple constructor.
type TupleField struct {
	Label string
	E     Expr
}

// TupleCons constructs a tuple: (a = e1, b = e2).
type TupleCons struct {
	exprBase
	Fields []TupleField
}

// SetCons constructs a set: {e1, e2, ...}.
type SetCons struct {
	exprBase
	Elems []Expr
}

// ListCons constructs a list: [e1, e2, ...].
type ListCons struct {
	exprBase
	Elems []Expr
}

// Op enumerates binary and unary operators.
type Op uint8

// Operators. The set-comparison family mirrors the paper's Table 2 forms.
const (
	OpEq        Op = iota // =
	OpNe                  // <>
	OpLt                  // <
	OpLe                  // <=
	OpGt                  // >
	OpGe                  // >=
	OpAdd                 // +
	OpSub                 // -
	OpMul                 // *
	OpDiv                 // /
	OpMod                 // %
	OpAnd                 // AND
	OpOr                  // OR
	OpNot                 // NOT (unary)
	OpNeg                 // - (unary)
	OpIn                  // e IN s        — e ∈ s
	OpNotIn               // e NOT IN s    — e ∉ s
	OpSubset              // a SUBSET s    — a ⊂ s
	OpSubsetEq            // a SUBSETEQ s  — a ⊆ s
	OpSupset              // a SUPSET s    — a ⊃ s
	OpSupsetEq            // a SUPSETEQ s  — a ⊇ s
	OpUnion               // s1 UNION s2
	OpIntersect           // s1 INTERSECT s2
	OpDiff                // s1 MINUS s2
)

// opNames maps operators to their surface syntax.
var opNames = map[Op]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT", OpNeg: "-",
	OpIn: "IN", OpNotIn: "NOT IN",
	OpSubset: "SUBSET", OpSubsetEq: "SUBSETEQ",
	OpSupset: "SUPSET", OpSupsetEq: "SUPSETEQ",
	OpUnion: "UNION", OpIntersect: "INTERSECT", OpDiff: "MINUS",
}

// String returns the surface syntax of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// IsSetComparison reports whether the operator is one of the set-membership /
// inclusion predicates.
func (o Op) IsSetComparison() bool {
	switch o {
	case OpIn, OpNotIn, OpSubset, OpSubsetEq, OpSupset, OpSupsetEq:
		return true
	}
	return false
}

// Negate returns the complemented comparison/set operator and whether one
// exists (e.g. ¬(a = b) ⇝ a <> b, ¬(e IN s) ⇝ e NOT IN s). Used by the
// classifier to push NOT inward.
func (o Op) Negate() (Op, bool) {
	switch o {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	case OpIn:
		return OpNotIn, true
	case OpNotIn:
		return OpIn, true
	}
	return 0, false
}

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   Op
	L, R Expr
}

// Unary is NOT p or -e.
type Unary struct {
	exprBase
	Op Op
	X  Expr
}

// Agg applies an aggregate function to a collection: COUNT(s), SUM(s), ...
type Agg struct {
	exprBase
	Kind value.AggKind
	X    Expr
}

// QuantKind distinguishes EXISTS from FORALL.
type QuantKind uint8

// Quantifier kinds.
const (
	QExists QuantKind = iota
	QForall
)

// String returns the keyword of the quantifier.
func (q QuantKind) String() string {
	if q == QExists {
		return "EXISTS"
	}
	return "FORALL"
}

// Quant is a quantified predicate: EXISTS v IN over (pred).
type Quant struct {
	exprBase
	Kind QuantKind
	Var  string
	Over Expr
	Pred Expr
}

// FromItem is one iterator binding of an SFW block: "FROM src var".
type FromItem struct {
	Var string
	Src Expr
}

// SFW is the SELECT-FROM-WHERE block. Where may be nil (no predicate).
// Multiple FROM items express flat join queries (SELECT ... FROM X x, Y y
// WHERE ...), mirroring the paper's target form for unnested queries.
type SFW struct {
	exprBase
	Result Expr
	Froms  []FromItem
	Where  Expr
}

// Let binds a local name: "body WITH v = def" parses to Let{V:v, Def:def,
// Body:body}. The paper uses WITH to name subqueries in WHERE clauses; the
// binder treats it as a transparent local definition.
type Let struct {
	exprBase
	V    string
	Def  Expr
	Body Expr
}

// Unnest applies UNNEST(S) = ⋃{s | s ∈ S} — §5's special case that turns
// SELECT-clause nesting into a flat join.
type Unnest struct {
	exprBase
	X Expr
}

// Walk calls fn on e and recursively on all children, stopping descent into a
// node when fn returns false.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *Lit, *Var, *TableRef:
	case *FieldSel:
		Walk(n.X, fn)
	case *TupleCons:
		for _, f := range n.Fields {
			Walk(f.E, fn)
		}
	case *SetCons:
		for _, el := range n.Elems {
			Walk(el, fn)
		}
	case *ListCons:
		for _, el := range n.Elems {
			Walk(el, fn)
		}
	case *Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Unary:
		Walk(n.X, fn)
	case *Agg:
		Walk(n.X, fn)
	case *Quant:
		Walk(n.Over, fn)
		Walk(n.Pred, fn)
	case *SFW:
		Walk(n.Result, fn)
		for _, f := range n.Froms {
			Walk(f.Src, fn)
		}
		if n.Where != nil {
			Walk(n.Where, fn)
		}
	case *Let:
		Walk(n.Def, fn)
		Walk(n.Body, fn)
	case *Unnest:
		Walk(n.X, fn)
	}
}

// FreeVars returns the set of variable names occurring free in e. Iteration
// variables of SFW blocks and quantifiers, and WITH-bound names, are binders.
func FreeVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectFree(e, map[string]int{}, out)
	return out
}

func collectFree(e Expr, bound map[string]int, out map[string]bool) {
	switch n := e.(type) {
	case nil:
		return
	case *Var:
		if bound[n.Name] == 0 {
			out[n.Name] = true
		}
	case *Lit, *TableRef:
	case *FieldSel:
		collectFree(n.X, bound, out)
	case *TupleCons:
		for _, f := range n.Fields {
			collectFree(f.E, bound, out)
		}
	case *SetCons:
		for _, el := range n.Elems {
			collectFree(el, bound, out)
		}
	case *ListCons:
		for _, el := range n.Elems {
			collectFree(el, bound, out)
		}
	case *Binary:
		collectFree(n.L, bound, out)
		collectFree(n.R, bound, out)
	case *Unary:
		collectFree(n.X, bound, out)
	case *Agg:
		collectFree(n.X, bound, out)
	case *Quant:
		collectFree(n.Over, bound, out)
		bound[n.Var]++
		collectFree(n.Pred, bound, out)
		bound[n.Var]--
	case *SFW:
		// FROM sources are evaluated left to right; each variable scopes over
		// later sources, the result, and the predicate (TM is orthogonal, so
		// a later FROM item may reference an earlier variable).
		n2 := 0
		for _, f := range n.Froms {
			collectFree(f.Src, bound, out)
			bound[f.Var]++
			n2++
		}
		collectFree(n.Result, bound, out)
		if n.Where != nil {
			collectFree(n.Where, bound, out)
		}
		for _, f := range n.Froms[:n2] {
			bound[f.Var]--
		}
	case *Let:
		collectFree(n.Def, bound, out)
		bound[n.V]++
		collectFree(n.Body, bound, out)
		bound[n.V]--
	case *Unnest:
		collectFree(n.X, bound, out)
	}
}

// IsCorrelated reports whether expression e references any of the given
// variable names free — the paper's notion of a correlated subquery.
func IsCorrelated(e Expr, vars map[string]bool) bool {
	free := FreeVars(e)
	for v := range vars {
		if free[v] {
			return true
		}
	}
	return false
}
