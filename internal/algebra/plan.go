// Package algebra defines the logical complex-object algebra the paper's
// optimizer targets — the NF² algebra of Schek & Scholl extended with the
// join family the paper works with: regular join, semijoin, antijoin,
// outerjoin, and the paper's contribution, the nest join (§6), together with
// the restructuring operators nest ν, the NULL-aware nest ν* (§6, "Algebraic
// Properties"), and unnest μ.
//
// Plans are immutable trees. Constructors validate operand types, bind and
// type the embedded TM expressions, and compute the element type of the
// operator's output, so an ill-typed plan cannot be built. Expressions inside
// operators (predicates, join functions, map bodies) are ordinary tmql ASTs
// evaluated under bindings for the operator's iteration variables.
package algebra

import (
	"fmt"

	"tmdb/internal/schema"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Plan is a logical operator tree producing a collection of values (usually
// tuples) of a fixed element type.
type Plan interface {
	// Elem returns the element type of the operator's output.
	Elem() *types.Type
	// Children returns the input plans, left to right.
	Children() []Plan
	// Describe returns a one-line rendering of this node (without inputs),
	// its slotted literals printed as their arguments in args, the values of
	// the query it runs for (tmql.FormatArgs); nil args print the literals
	// themselves.
	Describe(args []value.Value) string
}

// Builder constructs validated plans against a catalog. The catalog is used
// to resolve extension names inside embedded expressions (a predicate may
// itself contain an uncorrelated subquery) and table element types for scans.
type Builder struct {
	cat    *schema.Catalog
	binder *tmql.Binder
}

// NewBuilder returns a plan builder over the catalog (nil means empty).
func NewBuilder(cat *schema.Catalog) *Builder {
	if cat == nil {
		cat = schema.NewCatalog()
	}
	return &Builder{cat: cat, binder: tmql.NewBinder(cat)}
}

// --- Scan ---

// Scan reads a stored extension table.
type Scan struct {
	Table string
	elem  *types.Type
}

// Scan builds a scan of the named extension.
func (b *Builder) Scan(table string) (*Scan, error) {
	elem, err := b.cat.ElementType(table)
	if err != nil {
		return nil, fmt.Errorf("algebra: %w", err)
	}
	return &Scan{Table: table, elem: elem}, nil
}

func (s *Scan) Elem() *types.Type             { return s.elem }
func (s *Scan) Children() []Plan              { return nil }
func (s *Scan) Describe([]value.Value) string { return fmt.Sprintf("Scan(%s)", s.Table) }

// --- Select (σ) ---

// Select filters input elements by a boolean predicate over Var.
type Select struct {
	In   Plan
	Var  string
	Pred tmql.Expr
	elem *types.Type
}

// Select builds σ[pred(var)](in).
func (b *Builder) Select(in Plan, v string, pred tmql.Expr) (*Select, error) {
	bp, err := b.binder.BindIn(pred, tmql.VarBinding{Name: v, Type: in.Elem()})
	if err != nil {
		return nil, err
	}
	if !types.AssignableTo(bp.Type(), types.Bool) {
		return nil, fmt.Errorf("algebra: Select predicate must be BOOL, got %s", bp.Type())
	}
	return &Select{In: in, Var: v, Pred: bp, elem: in.Elem()}, nil
}

func (s *Select) Elem() *types.Type { return s.elem }
func (s *Select) Children() []Plan  { return []Plan{s.In} }
func (s *Select) Describe(args []value.Value) string {
	return fmt.Sprintf("Select[%s](%s)", tmql.FormatArgs(s.Pred, args), s.Var)
}

// --- Map (function application / projection) ---

// Map applies an expression to every input element (the algebra's projection
// and general function application).
type Map struct {
	In   Plan
	Var  string
	Out  tmql.Expr
	elem *types.Type
}

// Map builds map[out(var)](in).
func (b *Builder) Map(in Plan, v string, out tmql.Expr) (*Map, error) {
	bo, err := b.binder.BindIn(out, tmql.VarBinding{Name: v, Type: in.Elem()})
	if err != nil {
		return nil, err
	}
	return &Map{In: in, Var: v, Out: bo, elem: bo.Type()}, nil
}

// Project builds the common special case of Map keeping a subset of top-level
// attributes.
func (b *Builder) Project(in Plan, v string, labels ...string) (*Map, error) {
	fields := make([]tmql.TupleField, len(labels))
	for i, l := range labels {
		fields[i] = tmql.TupleField{Label: l, E: &tmql.FieldSel{X: &tmql.Var{Name: v}, Label: l}}
	}
	return b.Map(in, v, &tmql.TupleCons{Fields: fields})
}

func (m *Map) Elem() *types.Type { return m.elem }
func (m *Map) Children() []Plan  { return []Plan{m.In} }
func (m *Map) Describe(args []value.Value) string {
	return fmt.Sprintf("Map[%s](%s)", tmql.FormatArgs(m.Out, args), m.Var)
}

// --- Join family ---

// JoinKind discriminates the flat join variants sharing operand/predicate
// structure.
type JoinKind uint8

// Join variants. Semi and Anti produce left elements only; Outer pads
// dangling left elements with NULLs (the relational repair the paper replaces
// with the nest join).
const (
	JoinInner JoinKind = iota
	JoinSemi
	JoinAnti
	JoinLeftOuter
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "Join"
	case JoinSemi:
		return "SemiJoin"
	case JoinAnti:
		return "AntiJoin"
	case JoinLeftOuter:
		return "OuterJoin"
	}
	return "Join?"
}

// Join is the flat join family: inner join emits l ++ r; semijoin emits l
// when a match exists; antijoin emits l when no match exists; left outerjoin
// emits l ++ r for matches and l ++ NULLs for dangling l.
type Join struct {
	Kind       JoinKind
	L, R       Plan
	LVar, RVar string
	Pred       tmql.Expr
	elem       *types.Type
}

// Join builds the requested join variant. For inner and outer joins both
// element types must be tuples with disjoint top-level labels (the algebra's
// concatenation requirement).
func (b *Builder) Join(kind JoinKind, l, r Plan, lv, rv string, pred tmql.Expr) (*Join, error) {
	if lv == rv {
		return nil, fmt.Errorf("algebra: join variables must differ, both are %s", lv)
	}
	bp, err := b.binder.BindIn(pred,
		tmql.VarBinding{Name: lv, Type: l.Elem()},
		tmql.VarBinding{Name: rv, Type: r.Elem()},
	)
	if err != nil {
		return nil, err
	}
	if !types.AssignableTo(bp.Type(), types.Bool) {
		return nil, fmt.Errorf("algebra: join predicate must be BOOL, got %s", bp.Type())
	}
	j := &Join{Kind: kind, L: l, R: r, LVar: lv, RVar: rv, Pred: bp}
	switch kind {
	case JoinSemi, JoinAnti:
		j.elem = l.Elem()
	case JoinInner, JoinLeftOuter:
		elem, err := concatType(l.Elem(), r.Elem())
		if err != nil {
			return nil, err
		}
		j.elem = elem
	default:
		return nil, fmt.Errorf("algebra: unknown join kind %d", kind)
	}
	return j, nil
}

func concatType(l, r *types.Type) (*types.Type, error) {
	if l.Kind != types.KTuple || r.Kind != types.KTuple {
		return nil, fmt.Errorf("algebra: join concatenation needs tuple elements, got %s and %s", l, r)
	}
	fs := make([]types.Field, 0, len(l.Fields)+len(r.Fields))
	fs = append(fs, l.Fields...)
	for _, f := range r.Fields {
		if _, dup := l.Field(f.Label); dup {
			return nil, fmt.Errorf("algebra: join label collision on %s", f.Label)
		}
		fs = append(fs, f)
	}
	return types.Tuple(fs...), nil
}

func (j *Join) Elem() *types.Type { return j.elem }
func (j *Join) Children() []Plan  { return []Plan{j.L, j.R} }
func (j *Join) Describe(args []value.Value) string {
	return fmt.Sprintf("%s[%s](%s, %s)", j.Kind, tmql.FormatArgs(j.Pred, args), j.LVar, j.RVar)
}

// --- Nest join (△) — the paper's §6 operator ---

// NestJoin extends each left element x with Label = { Fn(x,y) | y ∈ R,
// Pred(x,y) }. Dangling left elements survive with Label = ∅; grouping is
// explicit in the set-valued output attribute. Table 1 of the paper is the
// identity-function equijoin instance of this operator.
type NestJoin struct {
	L, R       Plan
	LVar, RVar string
	Pred       tmql.Expr
	// Fn is the nest join function G applied to matching pairs; it may
	// reference both variables (the paper's G(x, y)).
	Fn    tmql.Expr
	Label string
	elem  *types.Type
}

// NestJoin builds X △[pred, fn; label] Y. The label must not collide with
// the left element's top-level attributes (the paper's freshness side
// condition).
func (b *Builder) NestJoin(l, r Plan, lv, rv string, pred, fn tmql.Expr, label string) (*NestJoin, error) {
	if lv == rv {
		return nil, fmt.Errorf("algebra: nest join variables must differ, both are %s", lv)
	}
	if l.Elem().Kind != types.KTuple {
		return nil, fmt.Errorf("algebra: nest join left element must be a tuple, got %s", l.Elem())
	}
	if _, dup := l.Elem().Field(label); dup {
		return nil, fmt.Errorf("algebra: nest join label %s already occurs in left element %s", label, l.Elem())
	}
	bp, err := b.binder.BindIn(pred,
		tmql.VarBinding{Name: lv, Type: l.Elem()},
		tmql.VarBinding{Name: rv, Type: r.Elem()},
	)
	if err != nil {
		return nil, err
	}
	if !types.AssignableTo(bp.Type(), types.Bool) {
		return nil, fmt.Errorf("algebra: nest join predicate must be BOOL, got %s", bp.Type())
	}
	if fn == nil {
		fn = &tmql.Var{Name: rv} // identity nest join function
	}
	bf, err := b.binder.BindIn(fn,
		tmql.VarBinding{Name: lv, Type: l.Elem()},
		tmql.VarBinding{Name: rv, Type: r.Elem()},
	)
	if err != nil {
		return nil, err
	}
	fs := append([]types.Field{}, l.Elem().Fields...)
	fs = append(fs, types.F(label, types.SetOf(bf.Type())))
	return &NestJoin{
		L: l, R: r, LVar: lv, RVar: rv, Pred: bp, Fn: bf, Label: label,
		elem: types.Tuple(fs...),
	}, nil
}

func (n *NestJoin) Elem() *types.Type { return n.elem }
func (n *NestJoin) Children() []Plan  { return []Plan{n.L, n.R} }
func (n *NestJoin) Describe(args []value.Value) string {
	return fmt.Sprintf("NestJoin[%s; %s; %s](%s, %s)",
		tmql.FormatArgs(n.Pred, args), tmql.FormatArgs(n.Fn, args), n.Label, n.LVar, n.RVar)
}

// --- Nest (ν) and NULL-aware nest (ν*) ---

// Nest is the NF² nest operator ν[attrs → label]: input tuples are grouped
// by all attributes except Attrs; each group becomes one tuple carrying the
// grouping attributes plus Label = the set of Attrs-projections of the
// group's members. NullAware selects ν* (§6): a group whose every member has
// only NULLs in Attrs yields ∅ — the operator that, composed with the
// outerjoin, re-expresses the nest join.
type Nest struct {
	In        Plan
	Attrs     []string
	Label     string
	NullAware bool
	elem      *types.Type
}

// Nest builds ν[attrs→label](in) (or ν* when nullAware).
func (b *Builder) Nest(in Plan, attrs []string, label string, nullAware bool) (*Nest, error) {
	et := in.Elem()
	if et.Kind != types.KTuple {
		return nil, fmt.Errorf("algebra: nest needs tuple elements, got %s", et)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("algebra: nest needs at least one attribute")
	}
	nested := make(map[string]bool, len(attrs))
	nestedFields := make([]types.Field, 0, len(attrs))
	for _, a := range attrs {
		ft, ok := et.Field(a)
		if !ok {
			return nil, fmt.Errorf("algebra: nest attribute %s not in element %s", a, et)
		}
		if nested[a] {
			return nil, fmt.Errorf("algebra: duplicate nest attribute %s", a)
		}
		nested[a] = true
		nestedFields = append(nestedFields, types.F(a, ft))
	}
	var groupFields []types.Field
	for _, f := range et.Fields {
		if !nested[f.Label] {
			groupFields = append(groupFields, f)
		}
	}
	if _, dup := et.Field(label); dup && !nested[label] {
		return nil, fmt.Errorf("algebra: nest label %s collides with a grouping attribute", label)
	}
	out := append([]types.Field{}, groupFields...)
	out = append(out, types.F(label, types.SetOf(types.Tuple(nestedFields...))))
	return &Nest{In: in, Attrs: attrs, Label: label, NullAware: nullAware,
		elem: types.Tuple(out...)}, nil
}

func (n *Nest) Elem() *types.Type { return n.elem }
func (n *Nest) Children() []Plan  { return []Plan{n.In} }
func (n *Nest) Describe([]value.Value) string {
	op := "Nest"
	if n.NullAware {
		op = "Nest*"
	}
	return fmt.Sprintf("%s[%v -> %s]", op, n.Attrs, n.Label)
}

// --- Unnest (μ) ---

// Unnest flattens the set-valued attribute Attr: each input tuple t yields
// one output tuple t − Attr ++ e per element e of t.Attr (tuple elements are
// concatenated, scalar elements keep the attribute's label). Tuples with
// t.Attr = ∅ vanish — the information loss that makes μ only a partial
// inverse of ν, which is precisely why the nest join must preserve dangling
// tuples itself.
type Unnest struct {
	In   Plan
	Attr string
	elem *types.Type
	// scalar records whether set elements are non-tuples (kept under Attr).
	scalar bool
}

// Unnest builds μ[attr](in).
func (b *Builder) Unnest(in Plan, attr string) (*Unnest, error) {
	et := in.Elem()
	if et.Kind != types.KTuple {
		return nil, fmt.Errorf("algebra: unnest needs tuple elements, got %s", et)
	}
	ft, ok := et.Field(attr)
	if !ok {
		return nil, fmt.Errorf("algebra: unnest attribute %s not in element %s", attr, et)
	}
	if ft.Kind != types.KSet {
		return nil, fmt.Errorf("algebra: unnest attribute %s must be set-valued, got %s", attr, ft)
	}
	var rest []types.Field
	for _, f := range et.Fields {
		if f.Label != attr {
			rest = append(rest, f)
		}
	}
	u := &Unnest{In: in, Attr: attr}
	if ft.Elem.Kind == types.KTuple {
		fs := append([]types.Field{}, rest...)
		for _, f := range ft.Elem.Fields {
			if _, dup := types.Tuple(rest...).Field(f.Label); dup {
				return nil, fmt.Errorf("algebra: unnest label collision on %s", f.Label)
			}
			fs = append(fs, f)
		}
		u.elem = types.Tuple(fs...)
	} else {
		fs := append([]types.Field{}, rest...)
		fs = append(fs, types.F(attr, ft.Elem))
		u.elem = types.Tuple(fs...)
		u.scalar = true
	}
	return u, nil
}

// Scalar reports whether the unnested elements are non-tuples.
func (u *Unnest) Scalar() bool { return u.scalar }

func (u *Unnest) Elem() *types.Type             { return u.elem }
func (u *Unnest) Children() []Plan              { return []Plan{u.In} }
func (u *Unnest) Describe([]value.Value) string { return fmt.Sprintf("Unnest[%s]", u.Attr) }

// --- Set operations over plans ---

// SetOpKind discriminates plan-level set operations.
type SetOpKind uint8

// Plan-level set operations.
const (
	SetUnion SetOpKind = iota
	SetIntersect
	SetDiff
)

// String names the set operation.
func (k SetOpKind) String() string {
	switch k {
	case SetUnion:
		return "Union"
	case SetIntersect:
		return "Intersect"
	case SetDiff:
		return "Diff"
	}
	return "SetOp?"
}

// SetOp combines two inputs by union, intersection, or difference.
type SetOp struct {
	Kind SetOpKind
	L, R Plan
	elem *types.Type
}

// SetOp builds the plan-level set operation; element types must unify.
func (b *Builder) SetOp(kind SetOpKind, l, r Plan) (*SetOp, error) {
	u := types.Unify(l.Elem(), r.Elem())
	if u == nil {
		return nil, fmt.Errorf("algebra: set operation over incompatible element types %s and %s",
			l.Elem(), r.Elem())
	}
	return &SetOp{Kind: kind, L: l, R: r, elem: u}, nil
}

func (s *SetOp) Elem() *types.Type             { return s.elem }
func (s *SetOp) Children() []Plan              { return []Plan{s.L, s.R} }
func (s *SetOp) Describe([]value.Value) string { return s.Kind.String() }

// --- Remote (naive) evaluation node ---

// EvalNode evaluates an arbitrary closed TM expression producing a set — the
// escape hatch the translator uses for blocks it cannot (or must not)
// flatten, e.g. subqueries over set-valued attributes (§3.2). The expression
// is evaluated by the naive evaluator.
type EvalNode struct {
	Expr tmql.Expr
	elem *types.Type
}

// EvalSet wraps a bound set-typed expression as a plan leaf.
func (b *Builder) EvalSet(e tmql.Expr) (*EvalNode, error) {
	be := e
	if be.Type() == nil {
		var err error
		be, err = b.binder.Bind(e)
		if err != nil {
			return nil, err
		}
	}
	t := be.Type()
	if t.Kind != types.KSet && t.Kind != types.KAny {
		return nil, fmt.Errorf("algebra: EvalSet needs a set-typed expression, got %s", t)
	}
	elem := types.Any
	if t.Kind == types.KSet {
		elem = t.Elem
	}
	return &EvalNode{Expr: be, elem: elem}, nil
}

func (e *EvalNode) Elem() *types.Type { return e.elem }
func (e *EvalNode) Children() []Plan  { return nil }
func (e *EvalNode) Describe(args []value.Value) string {
	return fmt.Sprintf("Eval[%s]", tmql.FormatArgs(e.Expr, args))
}
