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
	// selections whose equality conjuncts cover a live index prefix by a
	// table scan whose source is that index (per-selection fallback to
	// scans elsewhere); AccessAuto and AccessScan read full scans.
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
// and builds it over its compiled children. It also reports whether the tree
// emits its rows in canonical order (strictly ascending under
// value.Compare, hence duplicate-free), derived bottom-up by the same walk:
// a scan does, whole or narrowed to a range, but not read through an index;
// a filter, an identity map Map[v](v), and a semi-, anti- or groupjoin probe
// that emits each left row unchanged, at most once and in left order (every
// join method but sort-merge, which reorders its left input by key) keep
// their (left) input's order; every other operator drops it. exec.CollectBatchesGoverned then takes the rows
// as the set they are, unsorted.
func (p *Planner) Compile(plan algebra.Plan) (exec.BatchIterator, bool, error) {
	return p.compile(plan, source{})
}

// compile is Compile's walk; src is the source the selections above plan
// narrowed the scan at the bottom of its chain to.
func (p *Planner) compile(plan algebra.Plan, src source) (exec.BatchIterator, bool, error) {
	op := p.resolve(plan).beneath(plan, src)
	if op.infeasible != "" {
		return nil, false, fmt.Errorf("planner: %s join requested but %s", p.spec.Joins, op.infeasible)
	}
	c := p.ctx
	switch n := plan.(type) {
	case *algebra.Scan:
		return &exec.TableScan{Ctx: c, Table: n.Table, Range: src.rng,
			Ix: src.ix, Depth: src.index.Depth, Points: src.index.Points}, !src.indexed(), nil

	case *algebra.EvalNode:
		return &exec.EvalScan{Ctx: c, Expr: n.Expr}, false, nil

	case *algebra.Select:
		in, canonical, err := p.compile(n.In, op.inputSource(n, src, 0))
		if err != nil {
			return nil, false, err
		}
		pred := n.Pred
		if op.src.indexed() {
			pred = op.src.index.Residual
		}
		return &exec.Filter{Ctx: c, In: in, Var: n.Var, Pred: unwrap(pred, [2]string{n.Var}, [2]string{src.wrap})}, canonical, nil

	case *algebra.Map:
		if op.fused != nil {
			return p.compileFused(op, n)
		}
		in, canonical, err := p.compile(n.In, op.inputSource(n, src, 0))
		if err != nil || src.wrap != "" {
			return in, canonical, err // the wrap its join binds through
		}
		v, identity := n.Out.(*tmql.Var)
		return &exec.Map{Ctx: c, In: in, Var: n.Var, Out: n.Out, Distinct: needsDistinct(n)}, canonical && identity && v.Name == n.Var, nil

	case *algebra.Join:
		// Semi and anti joins emit their left rows; the others build rows.
		it, canonical, err := p.compileJoin(op, n)
		return it, canonical && (n.Kind == algebra.JoinSemi || n.Kind == algebra.JoinAnti), err

	case *algebra.NestJoin:
		// The row gains the group's label, which can reorder the rows.
		it, _, err := p.compileJoin(op, n)
		return it, false, err

	case *algebra.Nest:
		in, _, err := p.Compile(n.In)
		if err != nil {
			return nil, false, err
		}
		return &exec.NestIter{Ctx: c, In: in, Attrs: n.Attrs, Label: n.Label, NullAware: n.NullAware}, false, nil

	case *algebra.Unnest:
		in, _, err := p.Compile(n.In)
		if err != nil {
			return nil, false, err
		}
		return &exec.UnnestIter{Ctx: c, In: in, Attr: n.Attr, Scalar: n.Scalar()}, false, nil

	case *algebra.SetOp:
		l, _, err := p.Compile(n.L)
		if err != nil {
			return nil, false, err
		}
		r, _, err := p.Compile(n.R)
		if err != nil {
			return nil, false, err
		}
		return &exec.SetOpIter{Ctx: c, Kind: int(n.Kind), L: l, R: r}, false, nil
	}
	return nil, false, fmt.Errorf("planner: unhandled plan node %T", plan)
}

// compileFused builds the fused join m resolved to: a groupjoin, which
// emits left rows unchanged, or a projection fusion, which emits m's output.
// Where those rows are not duplicate-free by construction an identity map
// deduplicates them, as m would have. A groupjoin keeps the order
// compileJoin reports; a projection's rows have none.
func (p *Planner) compileFused(op physOp, m *algebra.Map) (exec.BatchIterator, bool, error) {
	it, canonical, err := p.compileJoin(op, op.fused)
	canonical = canonical && op.test != nil
	dedup := needsDistinct(m)
	if op.test != nil {
		dedup = !duplicateFree(op.fused.(*algebra.NestJoin).L)
	}
	if err != nil || !dedup {
		return it, canonical, err
	}
	return &exec.Map{Ctx: p.ctx, In: it, Var: m.Var, Out: &tmql.Var{Name: m.Var}, Distinct: true}, canonical, nil
}

// compileJoin compiles join-family node n as op's join method over its
// compiled operands, each binding its wrapped row where op says so, with a
// fused map's test or output. It reports whether the left input is canonical
// and the method probes it in its own order — every method but sort-merge —
// which is what the callers' kinds that emit left rows unchanged need.
func (p *Planner) compileJoin(op physOp, n algebra.Plan) (exec.BatchIterator, bool, error) {
	in, vars, pred, fn := joinParts(n)
	j := &exec.Join{Ctx: p.ctx, LVar: vars[0], RVar: vars[1], Residual: pred, Fn: fn, RElem: in[1].Elem(), Test: op.test, Out: op.out}
	if nj, ok := n.(*algebra.NestJoin); ok {
		j.Label = nj.Label
	} else {
		j.Kind = n.(*algebra.Join).Kind
	}
	var err error
	var canonical bool
	if j.L, canonical, err = p.compile(in[0], source{wrap: op.wrap[0]}); err != nil {
		return nil, false, err
	}
	switch op.family {
	case ImplIndex:
		// The persistent index stands in for the right operand, which is
		// never compiled, drained or built.
		j.Method, j.Ix = exec.JoinIndex, op.ix
		j.LKeys = probeLKeys(op.lk, op.probe)
		j.Residual = indexResidual(op.lk, op.rk, op.probe, op.residual)
		bindWraps(j, op.wrap)
		return j, canonical, nil
	case ImplNestedLoop:
		j.Method = exec.JoinNL
	default:
		j.Method, j.LKeys, j.RKeys, j.Residual = exec.JoinHash, op.lk, op.rk, op.residual
		if op.family == ImplMerge {
			j.Method = exec.JoinMerge
		}
	}
	if j.R, _, err = p.compile(in[1], source{wrap: op.wrap[1]}); err != nil {
		return nil, false, err
	}
	bindWraps(j, op.wrap)
	return j, canonical && j.Method != exec.JoinMerge, nil
}

// bindWraps rewrites j's expressions over an operand that binds its wrapped
// row (physOp.wrap) to read that row.
func bindWraps(j *exec.Join, w [2]string) {
	v := [2]string{j.LVar, j.RVar}
	for _, keys := range [][]tmql.Expr{j.LKeys, j.RKeys} {
		for k := range keys {
			keys[k] = unwrap(keys[k], v, w)
		}
	}
	j.Residual, j.Fn, j.Out = unwrap(j.Residual, v, w), unwrap(j.Fn, v, w), unwrap(j.Out, v, w)
}

// needsDistinct reports whether a compiled Map needs to deduplicate its
// output to keep set semantics downstream: a Map may collapse distinct inputs onto one
// value. It does not when the map is injective — its output is the variable
// itself or a tuple with a field that is the variable, as in Map[x](x) and
// Map[(x = x)](x) — and its input is duplicate-free by construction.
func needsDistinct(m *algebra.Map) bool {
	isVar := func(e tmql.Expr) bool {
		v, ok := e.(*tmql.Var)
		return ok && v.Name == m.Var
	}
	injective := isVar(m.Out)
	if cons, ok := m.Out.(*tmql.TupleCons); ok {
		injective = slices.ContainsFunc(cons.Fields, func(f tmql.TupleField) bool { return isVar(f.E) })
	}
	return !injective || !duplicateFree(m.In)
}

// duplicateFree reports whether plan's output is duplicate-free by
// construction. The cases are a whitelist: scans of a stored table, which is
// a set (an index lookup reads disjoint buckets of it), selections of a
// duplicate-free input, semi and anti joins of a duplicate-free left input,
// inner, left-outer and nest joins of duplicate-free inputs, and every Map
// (compiled injective or deduplicating). Unnest emits duplicates (see
// exec.UnnestIter), and set operations and everything else are not vouched
// for.
func duplicateFree(plan algebra.Plan) bool {
	switch n := plan.(type) {
	case *algebra.Scan, *algebra.Map:
		return true
	case *algebra.Select:
		return duplicateFree(n.In)
	case *algebra.Join:
		if n.Kind == algebra.JoinSemi || n.Kind == algebra.JoinAnti {
			return duplicateFree(n.L)
		}
		return duplicateFree(n.L) && duplicateFree(n.R)
	case *algebra.NestJoin:
		return duplicateFree(n.L) && duplicateFree(n.R)
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
