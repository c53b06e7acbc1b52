// Package planner is the optimizer's back half: it expands translations
// into logical alternatives (logical.go, joinorder.go), chooses a
// PhysicalSpec for one by estimated cost (choose.go, cost.go), and compiles
// the plan under that spec into exec operators (this file) — costing, EXPLAIN
// and compilation all reading one operator-resolution rule (resolve.go). Its
// central decision mirrors §6 "Implementation": join-family
// operators get hash implementations whenever an equi-key can be extracted
// from the predicate (with the right operand as build side — mandatory for
// the nest join), falling back to nested loops for arbitrary predicates. The
// nest join may alternatively run sort-merge (exec.JoinMerge) for ablation
// experiments; every family compiles to the one exec.Join, groupjoins
// included.
package planner

import (
	"fmt"
	"slices"

	"tmdb/internal/algebra"
	"tmdb/internal/exec"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

// JoinImpl selects the physical family used for joins with extractable
// equi-keys.
type JoinImpl uint8

// Physical join implementation choices.
const (
	ImplAuto JoinImpl = iota // hash when keys exist, else nested loop
	ImplNestedLoop
	ImplHash
	ImplMerge // nest join only; others fall back to hash
	// ImplIndex probes a table's persistent hash index (see
	// storage.Table.CreateIndex) instead of building a per-query hash table:
	// join-family operators whose right operand is a direct scan of an
	// indexed equi-key attribute compile to exec.JoinIndex joins, skipping
	// the build pass entirely; operators without a usable index fall back to
	// the auto mapping (hash when an equi-key exists, else nested loops).
	ImplIndex
)

// String names the implementation choice.
func (ji JoinImpl) String() string {
	switch ji {
	case ImplAuto:
		return "auto"
	case ImplNestedLoop:
		return "nested-loop"
	case ImplHash:
		return "hash"
	case ImplMerge:
		return "sort-merge"
	case ImplIndex:
		return "idxjoin"
	}
	return "impl?"
}

// PhysicalSpec is one point in the physical planning space: the join family
// and the access path of leaf selections. §6's observation that the nest
// join "adapts any common join method" makes these choices orthogonal to the
// unnesting strategy, so they travel as one value that Choose enumerates and
// that Estimate, Explain and Compile all read through the same
// operator-resolution rule (resolve.go).
//
// As a decision (what Candidate carries and Estimate/Explain/Compile take)
// the fields mean what runs. As a pin (what Choose takes) a zero field leaves
// that dimension to the enumeration; see Choose.
type PhysicalSpec struct {
	// Joins is the implementation family of all join-like operators.
	Joins JoinImpl
	// Access is the access path of leaf selections: AccessIndex serves
	// selections whose equality conjuncts cover a live index prefix through
	// exec.IndexScan (per-selection fallback to scans elsewhere); AccessAuto
	// and AccessScan read full scans.
	Access AccessPath
}

// Planner compiles logical plans to operator trees over a context.
type Planner struct {
	ctx  *exec.Ctx
	spec PhysicalSpec
}

// New returns a planner compiling under spec against ctx.
func New(ctx *exec.Ctx, spec PhysicalSpec) *Planner {
	return &Planner{ctx: ctx, spec: spec}
}

// Compile turns a logical plan into a physical operator tree — the one walk:
// each case asks the resolver which operator the node becomes under the spec
// and builds it over its compiled children.
func (p *Planner) Compile(plan algebra.Plan) (exec.BatchIterator, error) {
	op, ix := p.resolve(plan)
	if op.infeasible != "" {
		return nil, fmt.Errorf("planner: %s join requested but %s", p.spec.Joins, op.infeasible)
	}
	c := p.ctx
	switch n := plan.(type) {
	case *algebra.Scan:
		return &exec.TableScan{Ctx: c, Table: n.Table}, nil

	case *algebra.EvalNode:
		return &exec.EvalScan{Ctx: c, Expr: n.Expr}, nil

	case *algebra.Select:
		if op.indexScan {
			return p.compileIndexScan(n, op.scan, ix)
		}
		in, err := p.Compile(n.In)
		if err != nil {
			return nil, err
		}
		return &exec.Filter{Ctx: c, In: in, Var: n.Var, Pred: n.Pred}, nil

	case *algebra.Map:
		if nj := op.fused; nj != nil {
			return p.compileGroupjoin(op, ix, n, nj)
		}
		in, err := p.Compile(n.In)
		if err != nil {
			return nil, err
		}
		return p.compileMap(n, in), nil

	case *algebra.Join:
		return p.compileJoin(op, ix, n.L, n.R, &exec.Join{
			Ctx: c, Kind: n.Kind, LVar: n.LVar, RVar: n.RVar, Residual: n.Pred, RElem: n.R.Elem(),
		})

	case *algebra.NestJoin:
		return p.compileJoin(op, ix, n.L, n.R, &exec.Join{
			Ctx: c, LVar: n.LVar, RVar: n.RVar, Residual: n.Pred, Fn: n.Fn, Label: n.Label,
		})

	case *algebra.Nest:
		in, err := p.Compile(n.In)
		if err != nil {
			return nil, err
		}
		return &exec.NestIter{Ctx: c, In: in, Attrs: n.Attrs, Label: n.Label, NullAware: n.NullAware}, nil

	case *algebra.Unnest:
		in, err := p.Compile(n.In)
		if err != nil {
			return nil, err
		}
		return &exec.UnnestIter{Ctx: c, In: in, Attr: n.Attr, Scalar: n.Scalar()}, nil

	case *algebra.SetOp:
		l, err := p.Compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.Compile(n.R)
		if err != nil {
			return nil, err
		}
		return &exec.SetOpIter{Ctx: c, Kind: int(n.Kind), L: l, R: r}, nil
	}
	return nil, fmt.Errorf("planner: unhandled plan node %T", plan)
}

// compileMap builds a Map over its compiled input, deduplicating where set
// semantics need it.
func (p *Planner) compileMap(m *algebra.Map, in exec.BatchIterator) exec.BatchIterator {
	return &exec.Map{Ctx: p.ctx, In: in, Var: m.Var, Out: m.Out, Distinct: p.needsDistinct(m)}
}

// compileGroupjoin builds the groupjoin m resolved to: nest join nj with
// the selection between them as its test. The join emits left rows
// unchanged, so where those are not duplicate-free by construction an
// identity map deduplicates them, as the projection it replaces would have.
func (p *Planner) compileGroupjoin(op physOp, ix *storage.HashIndex, m *algebra.Map, nj *algebra.NestJoin) (exec.BatchIterator, error) {
	j, err := p.compileJoin(op, ix, nj.L, nj.R, &exec.Join{
		Ctx: p.ctx, LVar: nj.LVar, RVar: nj.RVar, Residual: nj.Pred, Fn: nj.Fn, Label: nj.Label, Test: op.test,
	})
	if err != nil || p.duplicateFree(nj.L) {
		return j, err
	}
	return &exec.Map{Ctx: p.ctx, In: j, Var: m.Var, Out: &tmql.Var{Name: m.Var}, Distinct: true}, nil
}

// compileJoin completes j, which carries the node's kind, variables, whole
// predicate (as Residual) and nest-join function, as the resolved family's
// join method over the compiled operands of lp and rp.
func (p *Planner) compileJoin(op physOp, ix *storage.HashIndex, lp, rp algebra.Plan, j *exec.Join) (exec.BatchIterator, error) {
	var err error
	if j.L, err = p.Compile(lp); err != nil {
		return nil, err
	}
	switch op.family {
	case ImplIndex:
		// The persistent index stands in for the right operand, which is
		// never compiled, drained or built.
		j.Method, j.Ix = exec.JoinIndex, ix
		j.LKeys = probeLKeys(op.lk, op.probe)
		j.Residual = indexResidual(op.lk, op.rk, op.probe, op.residual)
		return j, nil
	case ImplNestedLoop:
		j.Method = exec.JoinNL
	default:
		j.Method, j.LKeys, j.RKeys, j.Residual = exec.JoinHash, op.lk, op.rk, op.residual
		if op.family == ImplMerge {
			j.Method = exec.JoinMerge
		}
	}
	if j.R, err = p.Compile(rp); err != nil {
		return nil, err
	}
	return j, nil
}

// needsDistinct reports whether a compiled Map needs to deduplicate its
// output to keep set semantics downstream: a Map may collapse distinct inputs onto one
// value. It does not when the map is injective — its output is the variable
// itself or a tuple with a field that is the variable, as in Map[x](x) and
// Map[(x = x)](x) — and its input is duplicate-free by construction.
func (p *Planner) needsDistinct(m *algebra.Map) bool {
	isVar := func(e tmql.Expr) bool {
		v, ok := e.(*tmql.Var)
		return ok && v.Name == m.Var
	}
	injective := isVar(m.Out)
	if cons, ok := m.Out.(*tmql.TupleCons); ok {
		injective = slices.ContainsFunc(cons.Fields, func(f tmql.TupleField) bool { return isVar(f.E) })
	}
	return !injective || !p.duplicateFree(m.In)
}

// duplicateFree reports whether plan's output is duplicate-free by
// construction. The cases are a whitelist: scans of a sealed table (and index
// scans, which are selections over one; an unsealed table's rows are appended
// without deduplication, so its scan is not vouched for), selections of a
// duplicate-free input, semi and anti joins of a duplicate-free left input,
// inner, left-outer and nest joins of duplicate-free inputs, and every Map
// (compiled injective or deduplicating). Unnest emits duplicates (see
// exec.UnnestIter), and set operations and everything else are not vouched
// for. A plan is compiled per execution, so the sealed state is the one the
// scan will read.
func (p *Planner) duplicateFree(plan algebra.Plan) bool {
	switch n := plan.(type) {
	case *algebra.Scan:
		if p.ctx.DB == nil {
			return false
		}
		t, ok := p.ctx.DB.Table(n.Table)
		return ok && t.Sealed()
	case *algebra.Map:
		return true
	case *algebra.Select:
		return p.duplicateFree(n.In)
	case *algebra.Join:
		if n.Kind == algebra.JoinSemi || n.Kind == algebra.JoinAnti {
			return p.duplicateFree(n.L)
		}
		return p.duplicateFree(n.L) && p.duplicateFree(n.R)
	case *algebra.NestJoin:
		return p.duplicateFree(n.L) && p.duplicateFree(n.R)
	}
	return false
}

// ExtractEquiKeys splits a join predicate over (lvar, rvar) into equi-key
// pairs and a residual: every top-level conjunct of the form e1 = e2 with
// FreeVars(e1) ⊆ {lvar} and FreeVars(e2) ⊆ {rvar} (either orientation)
// becomes a key pair, once — a conjunct repeating the field paths of a pair
// already extracted, in either orientation, is implied by it and dropped;
// the conjunction of everything else is the residual (nil when empty).
// Constant conjuncts stay in the residual.
func ExtractEquiKeys(pred tmql.Expr, lvar, rvar string) (lkeys, rkeys []tmql.Expr, residual tmql.Expr) {
	var rest []tmql.Expr
	for _, c := range SplitConjuncts(pred) {
		l, r, ok := equiKey(c, lvar, rvar)
		if !ok {
			rest = append(rest, c)
			continue
		}
		repeated := false
		for i := range lkeys {
			repeated = repeated || samePath(lkeys[i], l) && samePath(rkeys[i], r)
		}
		if !repeated {
			lkeys, rkeys = append(lkeys, l), append(rkeys, r)
		}
	}
	return lkeys, rkeys, JoinConjuncts(rest)
}

// samePath reports whether a and b are the same variable or the same field
// path off one; other expressions are never the same.
func samePath(a, b tmql.Expr) bool {
	switch a := a.(type) {
	case *tmql.Var:
		b, ok := b.(*tmql.Var)
		return ok && a.Name == b.Name
	case *tmql.FieldSel:
		b, ok := b.(*tmql.FieldSel)
		return ok && a.Label == b.Label && samePath(a.X, b.X)
	}
	return false
}

// equiKey returns conjunct c as an equi-key pair, its left key over lvar and
// its right key over rvar, if it is one.
func equiKey(c tmql.Expr, lvar, rvar string) (l, r tmql.Expr, ok bool) {
	eq, isEq := c.(*tmql.Binary)
	if !isEq || eq.Op != tmql.OpEq {
		return nil, nil, false
	}
	lf, rf := tmql.FreeVars(eq.L), tmql.FreeVars(eq.R)
	switch {
	case onlyVar(lf, lvar) && onlyVar(rf, rvar) && lf[lvar] && rf[rvar]:
		return eq.L, eq.R, true
	case onlyVar(lf, rvar) && onlyVar(rf, lvar) && lf[rvar] && rf[lvar]:
		return eq.R, eq.L, true
	}
	return nil, nil, false
}

// onlyVar reports whether the free-variable set contains nothing but
// (possibly) v.
func onlyVar(free map[string]bool, v string) bool {
	for name := range free {
		if name != v {
			return false
		}
	}
	return true
}

// SplitConjuncts flattens a right- or left-nested AND tree into its
// conjuncts; a nil predicate yields nil. (Delegates to the shared tmql
// helper; kept for the planner's public surface.)
func SplitConjuncts(pred tmql.Expr) []tmql.Expr {
	return tmql.SplitAnd(pred)
}

// JoinConjuncts rebuilds a conjunction from parts (nil for none).
func JoinConjuncts(parts []tmql.Expr) tmql.Expr {
	return tmql.JoinAnd(parts)
}
