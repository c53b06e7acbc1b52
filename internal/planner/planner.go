// Package planner is the optimizer's back half: it expands translations
// into logical alternatives (logical.go, joinorder.go), resolves each under
// every PhysicalSpec it weighs into a physical tree (resolve.go), chooses
// the cheapest by estimated cost (choose.go, cost.go), and compiles the
// chosen tree into exec operators (this file) — Choose, the cost model,
// EXPLAIN and compilation all reading the one tree resolution built. Its
// central decision mirrors §6 "Implementation": join-family
// operators get hash implementations whenever an equi-key can be extracted
// from the predicate (with the right operand as build side — mandatory for
// the nest join), falling back to nested loops for arbitrary predicates. The
// nest join may alternatively run sort-merge (exec.JoinMerge) for ablation
// experiments; every family compiles to the one exec.Join, groupjoins
// included.
package planner

import (
	"errors"
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
// that Resolve turns a plan into a Tree under, the one tree Estimate,
// Explain and Compile read.
//
// As a decision (what Candidate and Tree carry) the fields mean what runs.
// As a pin (what Choose takes) a zero field leaves that dimension to the
// enumeration; see Choose.
type PhysicalSpec struct {
	// Joins is the implementation family of all join-like operators.
	Joins JoinImpl
	// Access is the access path of leaf selections: AccessIndex serves
	// selections whose equality conjuncts cover a live index prefix by a
	// table scan whose source is that index (per-selection fallback to
	// scans elsewhere); AccessAuto and AccessScan read full scans.
	Access AccessPath
}

// Compile builds the exec operator tree of t over ctx: each node becomes
// the operator it was resolved to over its inputs' operators, reading the
// expressions resolution bound, and each persistent index a node reads is
// fetched live by name. The snapshot fetched is what the query reads —
// buckets are copy-on-write, so it stays probeable if the registry entry is
// dropped mid-query — and an index dropped since t was resolved fails it
// with ErrIndexGone before any operator runs (Unindexed is the tree that
// cannot).
//
// The root does not deduplicate its rows: exec.CollectBatchesGoverned is
// the one place a result is, and Compile reports what the root guarantees
// so the collector does only what is left. The rows are canonical (strictly
// ascending under value.Compare, hence duplicate-free) when the walk derives
// so bottom-up: a scan emits them, whole or narrowed to a range, but not
// read through an index; a filter, an identity map Map[v](v), and a semi-,
// anti- or groupjoin probe that emits each left row unchanged, at most once
// and in left order (every join method but sort-merge, which reorders its
// left input by key) keep their (left) input's order; every other operator
// drops it. Otherwise they are duplicate-free when the root is a Map that
// needs no deduplication (needsDistinct, or a groupjoin over a
// duplicate-free left input) or another operator duplicateFree vouches for,
// and may repeat a row when not.
func Compile(ctx *exec.Ctx, t *Tree) (exec.BatchIterator, exec.Rows, error) {
	if t.Infeasible != "" {
		return nil, exec.AnyRows, fmt.Errorf("planner: %s join requested but %s", t.Spec.Joins, t.Infeasible)
	}
	it, canonical, err := compile(ctx, t.root)
	switch {
	case err != nil:
		return nil, exec.AnyRows, err
	case canonical:
		return it, exec.CanonicalRows, nil
	case t.repeats:
		return it, exec.AnyRows, nil
	}
	return it, exec.DistinctRows, nil
}

// Unindexed returns t's plan resolved under t's spec as if no table had an
// index: what runs once Compile reports that an index t reads is gone.
func Unindexed(t *Tree) *Tree { return resolveTree(t.Plan(), t.Spec, noIndexes) }

// ErrIndexGone is Compile's report of an index its tree reads that is no
// longer registered: storage.Table.DropIndex unregisters one without
// touching the trees that name it.
var ErrIndexGone = errors.New("planner: index dropped since the plan was resolved")

// liveIndex fetches the registered index of table on attrs from the
// context's database.
func liveIndex(c *exec.Ctx, table string, attrs []string) (*storage.HashIndex, error) {
	if c.DB != nil {
		if t, ok := c.DB.Table(table); ok {
			if ix, ok := t.IndexOn(attrs); ok {
				return ix, nil
			}
		}
	}
	return nil, ErrIndexGone
}

// compile is Compile's walk.
func compile(c *exec.Ctx, n *node) (exec.BatchIterator, bool, error) {
	switch p := n.plan.(type) {
	case *algebra.Scan:
		s := &exec.TableScan{Ctx: c, Table: p.Table, Range: n.rng.keyRange(c.Ev.Args)}
		if m := n.index; m != nil {
			ix, err := liveIndex(c, m.Table, m.IndexAttrs)
			if err != nil {
				return nil, false, err
			}
			s.Ix, s.Depth, s.Points = ix, m.Depth, m.Points
		}
		return s, n.index == nil, nil

	case *algebra.EvalNode:
		return &exec.EvalScan{Ctx: c, Expr: p.Expr}, false, nil

	case *algebra.Select:
		in, canonical, err := compile(c, n.in[0])
		if err != nil {
			return nil, false, err
		}
		return &exec.Filter{Ctx: c, In: in, Var: p.Var, Pred: n.pred}, canonical, nil

	case *algebra.Map:
		if n.join != nil {
			return compileFused(c, n, p)
		}
		in, canonical, err := compile(c, n.in[0])
		if err != nil || n.absorbed {
			return in, canonical, err // the wrap its join binds through
		}
		v, identity := p.Out.(*tmql.Var)
		return &exec.Map{Ctx: c, In: in, Var: p.Var, Out: p.Out, Distinct: n.dedup}, canonical && identity && v.Name == p.Var, nil

	case *algebra.Join:
		// Semi and anti joins emit their left rows; the others build rows.
		it, canonical, err := compileJoin(c, n, p)
		return it, canonical && (p.Kind == algebra.JoinSemi || p.Kind == algebra.JoinAnti), err

	case *algebra.NestJoin:
		// The row gains the group's label, which can reorder the rows.
		it, _, err := compileJoin(c, n, p)
		return it, false, err

	case *algebra.Nest:
		in, _, err := compile(c, n.in[0])
		if err != nil {
			return nil, false, err
		}
		return &exec.NestIter{Ctx: c, In: in, Attrs: p.Attrs, Label: p.Label, NullAware: p.NullAware}, false, nil

	case *algebra.Unnest:
		in, _, err := compile(c, n.in[0])
		if err != nil {
			return nil, false, err
		}
		return &exec.UnnestIter{Ctx: c, In: in, Attr: p.Attr, Scalar: p.Scalar()}, false, nil

	case *algebra.SetOp:
		l, _, err := compile(c, n.in[0])
		if err != nil {
			return nil, false, err
		}
		r, _, err := compile(c, n.in[1])
		if err != nil {
			return nil, false, err
		}
		return &exec.SetOpIter{Ctx: c, Kind: int(p.Kind), L: l, R: r}, false, nil
	}
	return nil, false, fmt.Errorf("planner: unhandled plan node %T", n.plan)
}

// compileFused builds the fused join Map node n resolved to: a groupjoin,
// which emits left rows unchanged, or a projection fusion, which emits m's
// output. Where those rows are not duplicate-free by construction an
// identity map deduplicates them, as m would have — below the root, whose
// rows the collector deduplicates. A groupjoin keeps the order compileJoin
// reports; a projection's rows have none.
func compileFused(c *exec.Ctx, n *node, m *algebra.Map) (exec.BatchIterator, bool, error) {
	j := n.join
	it, canonical, err := compileJoin(c, n, j.fused)
	canonical = canonical && j.test != nil
	if err != nil || !n.dedup {
		return it, canonical, err
	}
	return &exec.Map{Ctx: c, In: it, Var: m.Var, Out: &tmql.Var{Name: m.Var}, Distinct: true}, canonical, nil
}

// compileJoin builds join-family plan node p, resolved as n's join, over its
// compiled operands, with the expressions resolution bound. It reports
// whether the left input is canonical and the method probes it in its own
// order — every method but sort-merge — which is what the callers' kinds
// that emit left rows unchanged need.
func compileJoin(c *exec.Ctx, n *node, p algebra.Plan) (exec.BatchIterator, bool, error) {
	op := n.join
	in, vars, _, _ := joinParts(p)
	j := &exec.Join{Ctx: c, LVar: vars[0], RVar: vars[1], LKeys: op.keys[0], RKeys: op.keys[1],
		Residual: op.cond, Fn: op.fn, RElem: in[1].Elem(), Test: op.test, Out: op.proj}
	if nj, ok := p.(*algebra.NestJoin); ok {
		j.Label = nj.Label
	} else {
		j.Kind = p.(*algebra.Join).Kind
	}
	var err error
	var canonical bool
	if j.L, canonical, err = compile(c, n.in[0]); err != nil {
		return nil, false, err
	}
	switch op.family {
	case ImplIndex:
		// The persistent index stands in for the right operand, which is
		// never compiled, drained or built.
		j.Method = exec.JoinIndex
		if j.Ix, err = liveIndex(c, op.probe.Table, op.probe.IndexAttrs); err != nil {
			return nil, false, err
		}
		return j, canonical, nil
	case ImplNestedLoop:
		j.Method = exec.JoinNL
	case ImplMerge:
		j.Method = exec.JoinMerge
	default:
		j.Method = exec.JoinHash
	}
	if j.R, _, err = compile(c, n.in[1]); err != nil {
		return nil, false, err
	}
	return j, canonical && j.Method != exec.JoinMerge, nil
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
	for _, c := range tmql.SplitAnd(pred) {
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
	return lkeys, rkeys, tmql.JoinAnd(rest)
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
