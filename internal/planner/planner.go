// Package planner is the optimizer's back half: it expands translations
// into logical alternatives (logical.go, joinorder.go), chooses a
// PhysicalSpec for one by estimated cost (choose.go, cost.go), and compiles
// the plan under that spec into exec operators (this file) — costing, EXPLAIN
// and compilation all reading one operator-resolution rule (resolve.go). Its
// central decision mirrors §6 "Implementation": join-family
// operators get hash implementations whenever an equi-key can be extracted
// from the predicate (with the right operand as build side — mandatory for
// the nest join), falling back to nested loops for arbitrary predicates. The
// nest join may alternatively be compiled to sort-merge for ablation
// experiments.
package planner

import (
	"fmt"
	"slices"

	"tmdb/internal/algebra"
	"tmdb/internal/exec"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
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
	// indexed equi-key attribute compile to IndexJoin/IndexNestJoin, skipping
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

// PhysicalSpec is one point in the physical planning space: the join family,
// the access path of leaf selections and the batch size. §6's observation
// that the nest join "adapts any common join method" makes these choices
// orthogonal to the unnesting strategy, so they travel as one value that
// Choose enumerates and that Estimate, Explain and Compile all read through
// the same operator-resolution rule (resolve.go).
//
// As a decision (what Candidate carries and Estimate/Explain/Compile take)
// the fields mean what runs. As a pin (what Choose takes) a zero field leaves
// that dimension to the enumeration; see Choose.
//
// The two byte-sized fields are adjacent so they share a word: a Candidate
// embeds the spec, and one more word per candidate moves the candidate
// table's append growth up a size class (TestCandidateSize).
type PhysicalSpec struct {
	// Joins is the implementation family of all join-like operators.
	Joins JoinImpl
	// Access is the access path of leaf selections: AccessIndex serves
	// selections whose equality conjuncts cover a live index prefix through
	// exec.IndexScan (per-selection fallback to scans elsewhere); AccessAuto
	// and AccessScan read full scans.
	Access AccessPath
	// Batch is the rows-per-batch capacity of vectorized execution (capped at
	// exec.MaxBatchSize); 0 is row-at-a-time.
	Batch int
}

// Fixed resolves a pin without enumeration — the fixed-strategy path, where
// every physical choice is the caller's and an open dimension takes its
// conservative value (full scans, row-at-a-time), so fixed-strategy
// experiment numbers do not move when indexes or batching appear.
func (s PhysicalSpec) Fixed() PhysicalSpec {
	if s.Access == AccessAuto {
		s.Access = AccessScan
	}
	if s.Batch < 0 {
		s.Batch = 0
	}
	return s
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

// Tree is a compiled operator tree in the protocol its root speaks: exactly
// one of Rows and Batches is set.
type Tree struct {
	Rows    exec.Iterator
	Batches exec.BatchIterator
}

// Collect drains the tree into a canonical set value under gov (nil =
// ungoverned).
func (t Tree) Collect(gov *exec.Governor) (value.Value, error) {
	if t.Batches != nil {
		return exec.CollectBatchesGoverned(gov, t.Batches)
	}
	return exec.CollectGoverned(gov, t.Rows)
}

// Compile turns a logical plan into a physical operator tree. The hash join
// family is batch-only and runs in every plan; with spec.Batch == 0 every
// other node is a row operator and the tree's root speaks rows, with
// spec.Batch > 0 every node with a batch-native operator gets it. Either
// way asRows/asBatch adapt between the two protocols only where a consumer
// needs the other one — so a row operator in the middle of a plan never
// forces the subtree below it back to rows. Results are identical either way
// by the set canonicalization in Collect.
func (p *Planner) Compile(plan algebra.Plan) (Tree, error) {
	t, err := p.compile(plan)
	if err != nil {
		return Tree{}, err
	}
	if p.spec.Batch > 0 {
		return Tree{Batches: p.asBatch(t)}, nil
	}
	return Tree{Rows: p.asRows(t)}, nil
}

// asRows adapts a subtree for a row consumer.
func (p *Planner) asRows(t Tree) exec.Iterator {
	if t.Rows != nil {
		return t.Rows
	}
	return &exec.BatchToRows{In: t.Batches}
}

// asBatch adapts a subtree for a batch consumer.
func (p *Planner) asBatch(t Tree) exec.BatchIterator {
	if t.Batches != nil {
		return t.Batches
	}
	return &exec.RowsToBatch{It: t.Rows, Size: p.spec.Batch}
}

// compile2 compiles both operands of a binary node.
func (p *Planner) compile2(lp, rp algebra.Plan) (l, r Tree, err error) {
	if l, err = p.compile(lp); err != nil {
		return l, r, err
	}
	r, err = p.compile(rp)
	return l, r, err
}

// compile is the one walk: each case asks the resolver which operator the
// node becomes under the spec and builds it over its compiled children.
func (p *Planner) compile(plan algebra.Plan) (Tree, error) {
	op, ix := p.resolve(plan)
	if op.infeasible != "" {
		return Tree{}, fmt.Errorf("planner: %s join requested but %s", p.spec.Joins, op.infeasible)
	}
	c := p.ctx
	batch := p.spec.Batch > 0 && op.batchNative
	switch n := plan.(type) {
	case *algebra.Scan:
		if batch {
			return Tree{Batches: &exec.BatchTableScan{Ctx: c, Table: n.Table, Size: p.spec.Batch}}, nil
		}
		return Tree{Rows: &exec.TableScan{Ctx: c, Table: n.Table}}, nil

	case *algebra.EvalNode:
		return Tree{Rows: &exec.EvalScan{Ctx: c, Expr: n.Expr}}, nil

	case *algebra.Select:
		if op.indexScan {
			// An index scan is a bucket probe, not a row loop: a row operator
			// at any batch size.
			it, err := p.compileIndexScan(n, op.scan, ix)
			return Tree{Rows: it}, err
		}
		in, err := p.compile(n.In)
		if err != nil {
			return Tree{}, err
		}
		if batch {
			return Tree{Batches: &exec.BatchFilter{Ctx: c, In: p.asBatch(in), Var: n.Var, Pred: n.Pred}}, nil
		}
		return Tree{Rows: &exec.Filter{Ctx: c, In: p.asRows(in), Var: n.Var, Pred: n.Pred}}, nil

	case *algebra.Map:
		in, err := p.compile(n.In)
		if err != nil {
			return Tree{}, err
		}
		if batch {
			var m exec.BatchIterator = &exec.BatchMap{Ctx: c, In: p.asBatch(in), Var: n.Var, Out: n.Out}
			if p.needsDistinct(n) {
				m = &exec.BatchDistinct{Ctx: c, In: m}
			}
			return Tree{Batches: m}, nil
		}
		var m exec.Iterator = &exec.MapIter{Ctx: c, In: p.asRows(in), Var: n.Var, Out: n.Out}
		if p.needsDistinct(n) {
			m = &exec.Distinct{Ctx: c, In: m}
		}
		return Tree{Rows: m}, nil

	case *algebra.Join:
		if op.family == ImplIndex {
			// The persistent index stands in for the right operand, which is
			// never compiled, drained or built.
			l, err := p.compile(n.L)
			if err != nil {
				return Tree{}, err
			}
			return Tree{Rows: &exec.IndexJoin{
				Ctx: c, Kind: n.Kind, L: p.asRows(l),
				Table: op.probe.Table, Index: op.probe.Name(), Ix: ix,
				LVar: n.LVar, RVar: n.RVar,
				LKeys:    probeLKeys(op.lk, op.probe),
				Residual: indexResidual(op.lk, op.rk, op.probe, op.residual),
				RElem:    n.R.Elem(),
			}}, nil
		}
		l, r, err := p.compile2(n.L, n.R)
		if err != nil {
			return Tree{}, err
		}
		if op.family == ImplNestedLoop {
			return Tree{Rows: &exec.NLJoin{
				Ctx: c, Kind: n.Kind, L: p.asRows(l), R: p.asRows(r),
				LVar: n.LVar, RVar: n.RVar, Pred: n.Pred, RElem: n.R.Elem(),
			}}, nil
		}
		return Tree{Batches: &exec.HashJoin{
			Ctx: c, Kind: n.Kind, L: p.asBatch(l), R: p.asBatch(r),
			LVar: n.LVar, RVar: n.RVar,
			LKeys: op.lk, RKeys: op.rk, Residual: op.residual, RElem: n.R.Elem(),
		}}, nil

	case *algebra.NestJoin:
		if op.family == ImplIndex {
			l, err := p.compile(n.L)
			if err != nil {
				return Tree{}, err
			}
			return Tree{Rows: &exec.IndexNestJoin{
				Ctx: c, L: p.asRows(l),
				Table: op.probe.Table, Index: op.probe.Name(), Ix: ix,
				LVar: n.LVar, RVar: n.RVar,
				LKeys:    probeLKeys(op.lk, op.probe),
				Residual: indexResidual(op.lk, op.rk, op.probe, op.residual),
				Fn:       n.Fn, Label: n.Label,
			}}, nil
		}
		l, r, err := p.compile2(n.L, n.R)
		if err != nil {
			return Tree{}, err
		}
		switch op.family {
		case ImplNestedLoop:
			return Tree{Rows: &exec.NLNestJoin{
				Ctx: c, L: p.asRows(l), R: p.asRows(r), LVar: n.LVar, RVar: n.RVar,
				Pred: n.Pred, Fn: n.Fn, Label: n.Label,
			}}, nil
		case ImplMerge:
			return Tree{Rows: &exec.MergeNestJoin{
				Ctx: c, L: p.asBatch(l), R: p.asBatch(r), LVar: n.LVar, RVar: n.RVar,
				LKeys: op.lk, RKeys: op.rk, Residual: op.residual, Fn: n.Fn, Label: n.Label,
			}}, nil
		}
		return Tree{Batches: &exec.HashNestJoin{
			Ctx: c, L: p.asBatch(l), R: p.asBatch(r), LVar: n.LVar, RVar: n.RVar,
			LKeys: op.lk, RKeys: op.rk, Residual: op.residual, Fn: n.Fn, Label: n.Label,
		}}, nil

	case *algebra.Nest:
		in, err := p.compile(n.In)
		if err != nil {
			return Tree{}, err
		}
		return Tree{Rows: &exec.NestIter{Ctx: c, In: p.asRows(in), Attrs: n.Attrs, Label: n.Label, NullAware: n.NullAware}}, nil

	case *algebra.Unnest:
		in, err := p.compile(n.In)
		if err != nil {
			return Tree{}, err
		}
		return Tree{Rows: &exec.UnnestIter{Ctx: c, In: p.asRows(in), Attr: n.Attr, Scalar: n.Scalar()}}, nil

	case *algebra.SetOp:
		l, r, err := p.compile2(n.L, n.R)
		if err != nil {
			return Tree{}, err
		}
		return Tree{Rows: &exec.SetOpIter{Ctx: c, Kind: int(n.Kind), L: p.asRows(l), R: p.asRows(r)}}, nil
	}
	return Tree{}, fmt.Errorf("planner: unhandled plan node %T", plan)
}

// needsDistinct reports whether a compiled Map needs a Distinct above it to
// keep set semantics downstream: a Map may collapse distinct inputs onto one
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
// (compiled injective or with a Distinct). Unnest emits duplicates (see
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
// becomes a key pair; the conjunction of everything else is the residual
// (nil when empty). Constant conjuncts stay in the residual.
func ExtractEquiKeys(pred tmql.Expr, lvar, rvar string) (lkeys, rkeys []tmql.Expr, residual tmql.Expr) {
	conjuncts := SplitConjuncts(pred)
	var rest []tmql.Expr
	for _, c := range conjuncts {
		if eq, ok := c.(*tmql.Binary); ok && eq.Op == tmql.OpEq {
			lf, rf := tmql.FreeVars(eq.L), tmql.FreeVars(eq.R)
			switch {
			case onlyVar(lf, lvar) && onlyVar(rf, rvar) && lf[lvar] && rf[rvar]:
				lkeys = append(lkeys, eq.L)
				rkeys = append(rkeys, eq.R)
				continue
			case onlyVar(lf, rvar) && onlyVar(rf, lvar) && lf[rvar] && rf[lvar]:
				lkeys = append(lkeys, eq.R)
				rkeys = append(rkeys, eq.L)
				continue
			}
		}
		rest = append(rest, c)
	}
	return lkeys, rkeys, JoinConjuncts(rest)
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
