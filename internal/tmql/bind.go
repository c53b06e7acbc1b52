package tmql

import (
	"fmt"

	"tmdb/internal/schema"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Binder resolves names against a schema catalog and infers types. Free
// identifiers that name a class extension become TableRef nodes; all other
// names must be bound by an enclosing FROM, quantifier, or WITH. The binder
// returns a new, fully typed tree (the input is not mutated).
type Binder struct {
	cat *schema.Catalog
}

// NewBinder returns a binder over the catalog (nil means empty catalog).
func NewBinder(cat *schema.Catalog) *Binder {
	if cat == nil {
		cat = schema.NewCatalog()
	}
	return &Binder{cat: cat}
}

// Bind resolves and types a closed expression (no free variables other than
// extension names).
func (b *Binder) Bind(e Expr) (Expr, error) {
	return b.bind(e, &scope{})
}

// VarBinding is a pre-bound variable for BindIn: algebra operators type
// their predicate/function expressions against the element types of their
// operands.
type VarBinding struct {
	Name string
	Type *types.Type
}

// BindIn resolves and types an expression with the given variables in scope.
func (b *Binder) BindIn(e Expr, vars ...VarBinding) (Expr, error) {
	sc := &scope{}
	for _, v := range vars {
		sc = sc.push(v.Name, v.Type)
	}
	return b.bind(e, sc)
}

// scope is a linked-list environment of variable typings.
type scope struct {
	name string
	typ  *types.Type
	next *scope
}

func (s *scope) push(name string, t *types.Type) *scope {
	return &scope{name: name, typ: t, next: s}
}

func (s *scope) lookup(name string) (*types.Type, bool) {
	for c := s; c != nil; c = c.next {
		if c.name == name {
			return c.typ, true
		}
	}
	return nil, false
}

func errAt(p Pos, format string, args ...any) error {
	return fmt.Errorf("bind error at %s: %s", p, fmt.Sprintf(format, args...))
}

func (b *Binder) bind(e Expr, sc *scope) (Expr, error) {
	switch n := e.(type) {
	case *Lit:
		out := &Lit{exprBase: exprBase{pos: n.pos}, V: n.V, Slot: n.Slot}
		out.setType(types.TypeOf(n.V))
		return out, nil

	case *Var:
		if t, ok := sc.lookup(n.Name); ok {
			out := &Var{exprBase: exprBase{pos: n.pos}, Name: n.Name}
			out.setType(t)
			return out, nil
		}
		if _, ok := b.cat.ClassByExtension(n.Name); ok {
			elem, err := b.cat.ElementType(n.Name)
			if err != nil {
				return nil, errAt(n.pos, "%v", err)
			}
			out := &TableRef{exprBase: exprBase{pos: n.pos}, Name: n.Name}
			out.setType(types.SetOf(elem))
			return out, nil
		}
		return nil, errAt(n.pos, "unknown name %s", n.Name)

	case *TableRef:
		elem, err := b.cat.ElementType(n.Name)
		if err != nil {
			return nil, errAt(n.pos, "%v", err)
		}
		out := &TableRef{exprBase: exprBase{pos: n.pos}, Name: n.Name}
		out.setType(types.SetOf(elem))
		return out, nil

	case *FieldSel:
		x, err := b.bind(n.X, sc)
		if err != nil {
			return nil, err
		}
		xt := x.Type()
		var ft *types.Type
		switch xt.Kind {
		case types.KTuple:
			f, ok := xt.Field(n.Label)
			if !ok {
				return nil, errAt(n.pos, "tuple %s has no field %s", xt, n.Label)
			}
			ft = f
		case types.KAny:
			ft = types.Any
		default:
			return nil, errAt(n.pos, "cannot select field %s from %s", n.Label, xt)
		}
		out := &FieldSel{exprBase: exprBase{pos: n.pos}, X: x, Label: n.Label}
		out.setType(ft)
		return out, nil

	case *TupleCons:
		fs := make([]TupleField, len(n.Fields))
		tfs := make([]types.Field, len(n.Fields))
		seen := map[string]bool{}
		for i, f := range n.Fields {
			if seen[f.Label] {
				return nil, errAt(n.pos, "duplicate tuple label %s", f.Label)
			}
			seen[f.Label] = true
			fe, err := b.bind(f.E, sc)
			if err != nil {
				return nil, err
			}
			fs[i] = TupleField{Label: f.Label, E: fe}
			tfs[i] = types.F(f.Label, fe.Type())
		}
		out := &TupleCons{exprBase: exprBase{pos: n.pos}, Fields: fs}
		out.setType(types.Tuple(tfs...))
		return out, nil

	case *SetCons:
		elems := make([]Expr, len(n.Elems))
		elemT := types.Any
		for i, el := range n.Elems {
			be, err := b.bind(el, sc)
			if err != nil {
				return nil, err
			}
			elems[i] = be
			if u := types.Unify(elemT, be.Type()); u != nil {
				elemT = u
			} else {
				return nil, errAt(el.Pos(), "set element type %s incompatible with %s", be.Type(), elemT)
			}
		}
		out := &SetCons{exprBase: exprBase{pos: n.pos}, Elems: elems}
		out.setType(types.SetOf(elemT))
		return out, nil

	case *ListCons:
		elems := make([]Expr, len(n.Elems))
		elemT := types.Any
		for i, el := range n.Elems {
			be, err := b.bind(el, sc)
			if err != nil {
				return nil, err
			}
			elems[i] = be
			if u := types.Unify(elemT, be.Type()); u != nil {
				elemT = u
			} else {
				return nil, errAt(el.Pos(), "list element type %s incompatible with %s", be.Type(), elemT)
			}
		}
		out := &ListCons{exprBase: exprBase{pos: n.pos}, Elems: elems}
		out.setType(types.ListOf(elemT))
		return out, nil

	case *Binary:
		return b.bindBinary(n, sc)

	case *Unary:
		x, err := b.bind(n.X, sc)
		if err != nil {
			return nil, err
		}
		out := &Unary{exprBase: exprBase{pos: n.pos}, Op: n.Op, X: x}
		switch n.Op {
		case OpNot:
			if !types.AssignableTo(x.Type(), types.Bool) {
				return nil, errAt(n.pos, "NOT needs BOOL, got %s", x.Type())
			}
			out.setType(types.Bool)
		case OpNeg:
			if !x.Type().IsNumeric() && x.Type().Kind != types.KAny {
				return nil, errAt(n.pos, "unary - needs a number, got %s", x.Type())
			}
			out.setType(x.Type())
		default:
			return nil, errAt(n.pos, "bad unary operator %s", n.Op)
		}
		return out, nil

	case *Agg:
		x, err := b.bind(n.X, sc)
		if err != nil {
			return nil, err
		}
		xt := x.Type()
		if !xt.IsCollection() && xt.Kind != types.KAny {
			return nil, errAt(n.pos, "%s needs a collection, got %s", n.Kind, xt)
		}
		elem := types.Any
		if xt.IsCollection() {
			elem = xt.Elem
		}
		out := &Agg{exprBase: exprBase{pos: n.pos}, Kind: n.Kind, X: x}
		switch n.Kind {
		case value.AggCount:
			out.setType(types.Int)
		case value.AggAvg:
			out.setType(types.Float)
		case value.AggSum, value.AggMin, value.AggMax:
			out.setType(elem)
		}
		if n.Kind == value.AggSum || n.Kind == value.AggAvg {
			if !elem.IsNumeric() && elem.Kind != types.KAny {
				return nil, errAt(n.pos, "%s needs numeric elements, got %s", n.Kind, elem)
			}
		}
		return out, nil

	case *Quant:
		over, err := b.bind(n.Over, sc)
		if err != nil {
			return nil, err
		}
		ot := over.Type()
		if !ot.IsCollection() && ot.Kind != types.KAny {
			return nil, errAt(n.pos, "%s ranges over a collection, got %s", n.Kind, ot)
		}
		elem := types.Any
		if ot.IsCollection() {
			elem = ot.Elem
		}
		pred, err := b.bind(n.Pred, sc.push(n.Var, elem))
		if err != nil {
			return nil, err
		}
		if !types.AssignableTo(pred.Type(), types.Bool) {
			return nil, errAt(n.Pred.Pos(), "quantifier body must be BOOL, got %s", pred.Type())
		}
		out := &Quant{exprBase: exprBase{pos: n.pos}, Kind: n.Kind, Var: n.Var, Over: over, Pred: pred}
		out.setType(types.Bool)
		return out, nil

	case *SFW:
		froms := make([]FromItem, len(n.Froms))
		inner := sc
		for i, f := range n.Froms {
			src, err := b.bind(f.Src, inner)
			if err != nil {
				return nil, err
			}
			st := src.Type()
			if !st.IsCollection() && st.Kind != types.KAny {
				return nil, errAt(f.Src.Pos(), "FROM operand must be a collection, got %s", st)
			}
			elem := types.Any
			if st.IsCollection() {
				elem = st.Elem
			}
			froms[i] = FromItem{Var: f.Var, Src: src}
			inner = inner.push(f.Var, elem)
		}
		var where Expr
		if n.Where != nil {
			w, err := b.bind(n.Where, inner)
			if err != nil {
				return nil, err
			}
			if !types.AssignableTo(w.Type(), types.Bool) {
				return nil, errAt(n.Where.Pos(), "WHERE must be BOOL, got %s", w.Type())
			}
			where = w
		}
		result, err := b.bind(n.Result, inner)
		if err != nil {
			return nil, err
		}
		out := &SFW{exprBase: exprBase{pos: n.pos}, Result: result, Froms: froms, Where: where}
		out.setType(types.SetOf(result.Type()))
		return out, nil

	case *Let:
		def, err := b.bind(n.Def, sc)
		if err != nil {
			return nil, err
		}
		body, err := b.bind(n.Body, sc.push(n.V, def.Type()))
		if err != nil {
			return nil, err
		}
		out := &Let{exprBase: exprBase{pos: n.pos}, V: n.V, Def: def, Body: body}
		out.setType(body.Type())
		return out, nil

	case *Unnest:
		x, err := b.bind(n.X, sc)
		if err != nil {
			return nil, err
		}
		xt := x.Type()
		out := &Unnest{exprBase: exprBase{pos: n.pos}, X: x}
		switch {
		case xt.Kind == types.KSet && xt.Elem.Kind == types.KSet:
			out.setType(xt.Elem)
		case xt.Kind == types.KAny:
			out.setType(types.Any)
		case xt.Kind == types.KSet && xt.Elem.Kind == types.KAny:
			out.setType(types.SetOf(types.Any))
		default:
			return nil, errAt(n.pos, "UNNEST needs a set of sets, got %s", xt)
		}
		return out, nil
	}
	return nil, errAt(e.Pos(), "unhandled node %T", e)
}

func (b *Binder) bindBinary(n *Binary, sc *scope) (Expr, error) {
	l, err := b.bind(n.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(n.R, sc)
	if err != nil {
		return nil, err
	}
	lt, rt := l.Type(), r.Type()
	out := &Binary{exprBase: exprBase{pos: n.pos}, Op: n.Op, L: l, R: r}
	switch {
	case n.Op == OpAnd || n.Op == OpOr:
		if !types.AssignableTo(lt, types.Bool) || !types.AssignableTo(rt, types.Bool) {
			return nil, errAt(n.pos, "%s needs BOOL operands, got %s and %s", n.Op, lt, rt)
		}
		out.setType(types.Bool)
	case n.Op.IsComparison():
		if !types.Comparable(lt, rt) {
			return nil, errAt(n.pos, "cannot compare %s with %s", lt, rt)
		}
		out.setType(types.Bool)
	case n.Op == OpIn || n.Op == OpNotIn:
		if rt.Kind != types.KSet && rt.Kind != types.KAny {
			return nil, errAt(n.pos, "%s needs a set on the right, got %s", n.Op, rt)
		}
		if rt.Kind == types.KSet && !types.Comparable(lt, rt.Elem) {
			return nil, errAt(n.pos, "%s: element type %s incompatible with set of %s", n.Op, lt, rt.Elem)
		}
		out.setType(types.Bool)
	case n.Op == OpSubset || n.Op == OpSubsetEq || n.Op == OpSupset || n.Op == OpSupsetEq:
		if (lt.Kind != types.KSet && lt.Kind != types.KAny) || (rt.Kind != types.KSet && rt.Kind != types.KAny) {
			return nil, errAt(n.pos, "%s needs set operands, got %s and %s", n.Op, lt, rt)
		}
		out.setType(types.Bool)
	case n.Op == OpUnion || n.Op == OpIntersect || n.Op == OpDiff:
		if (lt.Kind != types.KSet && lt.Kind != types.KAny) || (rt.Kind != types.KSet && rt.Kind != types.KAny) {
			return nil, errAt(n.pos, "%s needs set operands, got %s and %s", n.Op, lt, rt)
		}
		u := types.Unify(lt, rt)
		if u == nil {
			u = types.SetOf(types.Any)
		}
		out.setType(u)
	case n.Op == OpAdd || n.Op == OpSub || n.Op == OpMul || n.Op == OpDiv || n.Op == OpMod:
		lnum := lt.IsNumeric() || lt.Kind == types.KAny
		rnum := rt.IsNumeric() || rt.Kind == types.KAny
		if !lnum || !rnum {
			return nil, errAt(n.pos, "%s needs numeric operands, got %s and %s", n.Op, lt, rt)
		}
		u := types.Unify(lt, rt)
		if u == nil || !u.IsNumeric() {
			u = types.Float
		}
		if n.Op == OpDiv {
			u = types.Float
		}
		out.setType(u)
	default:
		return nil, errAt(n.pos, "bad binary operator %s", n.Op)
	}
	return out, nil
}
