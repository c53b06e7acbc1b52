package algebra

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/schema"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// evalPlan executes a logical plan directly through a tiny interpreter local
// to this test (the algebra package cannot import planner/exec without a
// cycle). It implements the denotational semantics of each operator and is
// deliberately independent from internal/exec, giving the equivalence tests
// a second executable semantics to agree with.
func evalPlan(t *testing.T, db *storage.DB, p Plan) value.Value {
	t.Helper()
	v, err := evalPlanE(db, p)
	if err != nil {
		t.Fatalf("evalPlan(%s): %v", p.Describe(nil), err)
	}
	return v
}

func evalPlanE(db *storage.DB, p Plan) (value.Value, error) {
	ev := neweval(db)
	return ev.plan(p)
}

type planEval struct {
	db *storage.DB
}

func neweval(db *storage.DB) *planEval { return &planEval{db: db} }

func (pe *planEval) plan(p Plan) (value.Value, error) {
	switch n := p.(type) {
	case *Scan:
		tab, ok := pe.db.Table(n.Table)
		if !ok {
			return value.Value{}, errf("no table %s", n.Table)
		}
		return tab.AsSet(), nil
	case *Select:
		in, err := pe.plan(n.In)
		if err != nil {
			return value.Value{}, err
		}
		b := value.NewSetBuilder(0)
		for _, e := range in.Elems() {
			ok, err := pe.pred(n.Pred, env{n.Var: e})
			if err != nil {
				return value.Value{}, err
			}
			if ok {
				b.Add(e)
			}
		}
		return b.Build(), nil
	case *Map:
		in, err := pe.plan(n.In)
		if err != nil {
			return value.Value{}, err
		}
		b := value.NewSetBuilder(0)
		for _, e := range in.Elems() {
			v, err := pe.expr(n.Out, env{n.Var: e})
			if err != nil {
				return value.Value{}, err
			}
			b.Add(v)
		}
		return b.Build(), nil
	case *Join:
		l, err := pe.plan(n.L)
		if err != nil {
			return value.Value{}, err
		}
		r, err := pe.plan(n.R)
		if err != nil {
			return value.Value{}, err
		}
		b := value.NewSetBuilder(0)
		for _, le := range l.Elems() {
			matched := false
			for _, re := range r.Elems() {
				ok, err := pe.pred(n.Pred, env{n.LVar: le, n.RVar: re})
				if err != nil {
					return value.Value{}, err
				}
				if !ok {
					continue
				}
				matched = true
				if n.Kind == JoinInner || n.Kind == JoinLeftOuter {
					b.Add(le.Concat(re))
				}
			}
			switch n.Kind {
			case JoinSemi:
				if matched {
					b.Add(le)
				}
			case JoinAnti:
				if !matched {
					b.Add(le)
				}
			case JoinLeftOuter:
				if !matched {
					pad := make([]value.Field, 0)
					for _, f := range n.R.Elem().Fields {
						pad = append(pad, value.F(f.Label, value.Null))
					}
					b.Add(le.Concat(value.TupleOf(pad...)))
				}
			}
		}
		return b.Build(), nil
	case *NestJoin:
		l, err := pe.plan(n.L)
		if err != nil {
			return value.Value{}, err
		}
		r, err := pe.plan(n.R)
		if err != nil {
			return value.Value{}, err
		}
		b := value.NewSetBuilder(0)
		for _, le := range l.Elems() {
			grp := value.NewSetBuilder(0)
			for _, re := range r.Elems() {
				ok, err := pe.pred(n.Pred, env{n.LVar: le, n.RVar: re})
				if err != nil {
					return value.Value{}, err
				}
				if !ok {
					continue
				}
				g, err := pe.expr(n.Fn, env{n.LVar: le, n.RVar: re})
				if err != nil {
					return value.Value{}, err
				}
				grp.Add(g)
			}
			b.Add(le.Extend(n.Label, grp.Build()))
		}
		return b.Build(), nil
	default:
		return value.Value{}, errf("planEval: unhandled %T", p)
	}
}

type env map[string]value.Value

func (pe *planEval) pred(e tmql.Expr, en env) (bool, error) {
	v, err := pe.expr(e, en)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

// expr evaluates the tiny expression subset the tests use: literals, vars,
// field selection, =, <, AND, IN.
func (pe *planEval) expr(e tmql.Expr, en env) (value.Value, error) {
	switch n := e.(type) {
	case *tmql.Lit:
		return n.V, nil
	case *tmql.Var:
		v, ok := en[n.Name]
		if !ok {
			return value.Value{}, errf("unbound %s", n.Name)
		}
		return v, nil
	case *tmql.FieldSel:
		x, err := pe.expr(n.X, en)
		if err != nil {
			return value.Value{}, err
		}
		return x.MustGet(n.Label), nil
	case *tmql.TupleCons:
		fs := make([]value.Field, 0, len(n.Fields))
		for _, f := range n.Fields {
			v, err := pe.expr(f.E, en)
			if err != nil {
				return value.Value{}, err
			}
			fs = append(fs, value.F(f.Label, v))
		}
		return value.TupleOf(fs...), nil
	case *tmql.Binary:
		l, err := pe.expr(n.L, en)
		if err != nil {
			return value.Value{}, err
		}
		r, err := pe.expr(n.R, en)
		if err != nil {
			return value.Value{}, err
		}
		switch n.Op {
		case tmql.OpEq:
			return value.Bool(value.Equal(l, r)), nil
		case tmql.OpLt:
			return value.Bool(value.Compare(l, r) < 0), nil
		case tmql.OpGt:
			return value.Bool(value.Compare(l, r) > 0), nil
		case tmql.OpAnd:
			return value.Bool(l.AsBool() && r.AsBool()), nil
		case tmql.OpIn:
			return value.Bool(value.Contains(r, l)), nil
		}
	}
	return value.Value{}, errf("planEval expr: unhandled %s", tmql.Format(e))
}

func errf(format string, args ...any) error {
	return fmt.Errorf("planEval: "+format, args...)
}

// --- fixtures ---

func equivEnv() (*schema.Catalog, *storage.DB, *Builder) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 25, NY: 60, NZ: 40, Keys: 8, DanglingFrac: 0.3, SetAttrCard: 3, Seed: 21,
	})
	return cat, db, NewBuilder(cat)
}

// TestProjectionEliminationIdentity checks πX(X △ Y) = X (§6) both as an
// executed equivalence and as a rewrite performed by Optimize.
func TestProjectionEliminationIdentity(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, err := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), nil, "s")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := b.Project(nj, "v", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// Executed equivalence.
	lhs := evalPlan(t, db, proj)
	xOnly, _ := b.Project(x, "v", "a", "b")
	rhs := evalPlan(t, db, xOnly)
	if !value.Equal(lhs, rhs) {
		t.Errorf("πX(X △ Y) ≠ X:\n lhs %s\n rhs %s", lhs, rhs)
	}
	// Rewrite performed.
	opt, err := Optimize(b, proj)
	if err != nil {
		t.Fatal(err)
	}
	if CountOps(opt)["NestJoin"] != 0 {
		t.Errorf("Optimize did not eliminate the dead nest join:\n%s", Explain(opt))
	}
	if got := evalPlan(t, db, opt); !value.Equal(got, lhs) {
		t.Error("Optimize changed semantics")
	}
}

// TestProjectionUsingLabelNotEliminated: the rule must not fire when the
// projection reads the group.
func TestProjectionUsingLabelNotEliminated(t *testing.T) {
	_, _, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), nil, "s")
	m, err := b.Map(nj, "v", tmql.MustParse("(b = v.b, s = v.s)"))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(b, m)
	if err != nil {
		t.Fatal(err)
	}
	if CountOps(opt)["NestJoin"] != 1 {
		t.Errorf("nest join wrongly eliminated:\n%s", Explain(opt))
	}
	// Whole-tuple use also blocks elimination.
	m2, _ := b.Map(nj, "v", &tmql.Var{Name: "v"})
	opt2, _ := Optimize(b, m2)
	if CountOps(opt2)["NestJoin"] != 1 {
		t.Error("whole-tuple map must keep the nest join")
	}
}

// TestSelectionPushdown checks σp(x)(X △ Y) = σp(x)(X) △ Y executed and as a
// rewrite.
func TestSelectionPushdown(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), nil, "s")
	sel, err := b.Select(nj, "v", tmql.MustParse("v.b > 2"))
	if err != nil {
		t.Fatal(err)
	}
	lhs := evalPlan(t, db, sel)

	pushedX, _ := b.Select(x, "x", tmql.MustParse("x.b > 2"))
	nj2, _ := b.NestJoin(pushedX, y, "x", "y", tmql.MustParse("x.b = y.b"), nil, "s")
	rhs := evalPlan(t, db, nj2)
	if !value.Equal(lhs, rhs) {
		t.Errorf("selection pushdown identity fails:\n lhs %s\n rhs %s", lhs, rhs)
	}

	opt, err := Optimize(b, sel)
	if err != nil {
		t.Fatal(err)
	}
	// After rewriting the Select must sit below the NestJoin.
	if njTop, ok := opt.(*NestJoin); !ok {
		t.Errorf("pushdown did not fire:\n%s", Explain(opt))
	} else if _, ok := njTop.L.(*Select); !ok {
		t.Errorf("Select not pushed to the left operand:\n%s", Explain(opt))
	}
	if got := evalPlan(t, db, opt); !value.Equal(got, lhs) {
		t.Error("Optimize changed semantics")
	}
}

// TestSelectionOnLabelNotPushed: predicates reading the group must stay
// above the nest join.
func TestSelectionOnLabelNotPushed(t *testing.T) {
	_, _, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "s")
	sel, _ := b.Select(nj, "v", tmql.MustParse("1 IN v.s"))
	opt, err := Optimize(b, sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := opt.(*Select); !ok {
		t.Errorf("label-reading selection must not move:\n%s", Explain(opt))
	}
}

// TestNestJoinJoinCommutation verifies the paper's §6 equivalence
//
//	(X ⋈r(x,y) Y) △r(x,z) Z = (X △r(x,z) Z) ⋈r(x,y) Y
//
// on data (both predicates reference only the operands named; the join and
// the nest join touch disjoint right-hand operands).
func TestNestJoinJoinCommutation(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	y, _ := b.Scan("Y")
	// Wrap Y to avoid label collisions with X in the concat.
	yw, err := b.Map(y, "y", tmql.MustParse("(ya = y.a, yb = y.b)"))
	if err != nil {
		t.Fatal(err)
	}

	// LHS: (X ⋈ Yw) △ Z.
	j1, err := b.Join(JoinInner, x, yw, "x", "y", tmql.MustParse("x.b = y.yb"))
	if err != nil {
		t.Fatal(err)
	}
	lhsPlan, err := b.NestJoin(j1, z, "v", "z", tmql.MustParse("v.b = z.d"), tmql.MustParse("z.c"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	// RHS: (X △ Z) ⋈ Yw.
	nj2, err := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), tmql.MustParse("z.c"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	rhsPlan, err := b.Join(JoinInner, nj2, yw, "v", "y", tmql.MustParse("v.b = y.yb"))
	if err != nil {
		t.Fatal(err)
	}

	lhs := evalPlan(t, db, lhsPlan)
	rhs := evalPlan(t, db, rhsPlan)
	if !value.Equal(lhs, rhs) {
		t.Errorf("(X⋈Y)△Z ≠ (X△Z)⋈Y:\n lhs %d elems\n rhs %d elems", lhs.Len(), rhs.Len())
	}
}

// TestJoinNestJoinAssociationRight verifies the paper's second §6 form
//
//	(X ⋈r(x,y) Y) △r(y,z) Z = X ⋈r(x,y) (Y △r(y,z) Z)
func TestJoinNestJoinAssociationRight(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	y, _ := b.Scan("Y")
	yw, _ := b.Map(y, "y", tmql.MustParse("(ya = y.a, yb = y.b, yd = y.d)"))

	// LHS: (X ⋈ Yw) △ Z on the Y part of the concat.
	j1, _ := b.Join(JoinInner, x, yw, "x", "y", tmql.MustParse("x.b = y.yb"))
	lhsPlan, err := b.NestJoin(j1, z, "v", "z", tmql.MustParse("v.yd = z.d"), tmql.MustParse("z.c"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	// RHS: X ⋈ (Yw △ Z).
	nj2, err := b.NestJoin(yw, z, "y", "z", tmql.MustParse("y.yd = z.d"), tmql.MustParse("z.c"), "zs")
	if err != nil {
		t.Fatal(err)
	}
	rhsPlan, err := b.Join(JoinInner, x, nj2, "x", "v", tmql.MustParse("x.b = v.yb"))
	if err != nil {
		t.Fatal(err)
	}

	lhs := evalPlan(t, db, lhsPlan)
	rhs := evalPlan(t, db, rhsPlan)
	if !value.Equal(lhs, rhs) {
		t.Errorf("(X⋈Y)△Z ≠ X⋈(Y△Z) when the nest join hangs off Y")
	}
}

// TestNestJoinNotCommutative documents the §6 negative result: X △ Y and
// Y △ X differ (already in type, and on data).
func TestNestJoinNotCommutative(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	xy, err := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), tmql.MustParse("z.c"), "s")
	if err != nil {
		t.Fatal(err)
	}
	yx, err := b.NestJoin(z, x, "z", "x", tmql.MustParse("x.b = z.d"), tmql.MustParse("x.b"), "s")
	if err != nil {
		t.Fatal(err)
	}
	l := evalPlan(t, db, xy)
	r := evalPlan(t, db, yx)
	if value.Equal(l, r) {
		t.Error("nest join unexpectedly commuted on this instance")
	}
}

func TestMergeSelectsAndSelectTrue(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	s1, _ := b.Select(x, "u", tmql.MustParse("u.b > 1"))
	s2, _ := b.Select(s1, "w", tmql.MustParse("w.b < 5"))
	opt, err := Optimize(b, s2)
	if err != nil {
		t.Fatal(err)
	}
	// One Select with the conjunction remains.
	if CountOps(opt)["Select"] != 1 {
		t.Errorf("selects not merged:\n%s", Explain(opt))
	}
	if !value.Equal(evalPlan(t, db, opt), evalPlan(t, db, s2)) {
		t.Error("merge changed semantics")
	}

	st, _ := b.Select(x, "u", tmql.MustParse("TRUE"))
	opt2, _ := Optimize(b, st)
	if CountOps(opt2)["Select"] != 0 {
		t.Errorf("σ[true] not dropped:\n%s", Explain(opt2))
	}
}

func TestOptimizeDescendsThroughOperators(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	st, _ := b.Select(x, "u", tmql.MustParse("TRUE"))
	nj, _ := b.NestJoin(st, y, "x", "y", tmql.MustParse("x.b = y.b"), nil, "s")
	m, _ := b.Map(nj, "v", tmql.MustParse("(b = v.b, s = v.s)"))
	opt, err := Optimize(b, m)
	if err != nil {
		t.Fatal(err)
	}
	if CountOps(opt)["Select"] != 0 {
		t.Errorf("σ[true] under nest join not dropped:\n%s", Explain(opt))
	}
	if !value.Equal(evalPlan(t, db, opt), evalPlan(t, db, m)) {
		t.Error("optimization changed semantics")
	}
	if !strings.Contains(Explain(opt), "NestJoin") {
		t.Error("needed nest join vanished")
	}
}

// TestSplitSelectionPushdown: a mixed predicate (one label-reading conjunct,
// one left-only conjunct) must split — the left-only part sinks into the
// nest join's left operand, the label part stays above — without changing
// semantics.
func TestSplitSelectionPushdown(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "s")
	sel, err := b.Select(nj, "v", tmql.MustParse("1 IN v.s AND v.b > 2"))
	if err != nil {
		t.Fatal(err)
	}
	want := evalPlan(t, db, sel)
	opt, err := Optimize(b, sel)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := opt.(*Select)
	if !ok {
		t.Fatalf("label conjunct must keep a Select on top:\n%s", Explain(opt))
	}
	njTop, ok := top.In.(*NestJoin)
	if !ok {
		t.Fatalf("expected Select over NestJoin:\n%s", Explain(opt))
	}
	if _, ok := njTop.L.(*Select); !ok {
		t.Errorf("left-only conjunct not pushed into the left operand:\n%s", Explain(opt))
	}
	if got := evalPlan(t, db, opt); !value.Equal(got, want) {
		t.Error("split pushdown changed semantics")
	}
}

// TestSelectThroughProject: a selection above a label projection commutes
// with it, and composed with the pushdown it reaches the scan below a nest
// join — the plan shape the translator produces for "subquery conjunct, then
// plain conjunct" WHERE clauses.
func TestSelectThroughProject(t *testing.T) {
	_, db, b := equivEnv()
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	nj, _ := b.NestJoin(x, y, "x", "y", tmql.MustParse("x.b = y.b"), tmql.MustParse("y.a"), "s")
	proj, err := b.Project(nj, "x", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := b.Select(proj, "v", tmql.MustParse("v.b > 2"))
	if err != nil {
		t.Fatal(err)
	}
	want := evalPlan(t, db, sel)
	opt, err := Optimize(b, sel)
	if err != nil {
		t.Fatal(err)
	}
	// The selection must cross the projection; with only left attributes
	// used, projection elimination and pushdown then collapse the plan all
	// the way to σ over the scan.
	if _, ok := opt.(*Select); ok {
		t.Errorf("selection did not cross the projection:\n%s", Explain(opt))
	}
	if got := evalPlan(t, db, opt); !value.Equal(got, want) {
		t.Error("select-through-project changed semantics")
	}
}
