package planner

import (
	"fmt"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// Operator resolution: which exec operator a plan node becomes under a
// PhysicalSpec. resolve is the only place that decision is made — the cost
// model, ImplInfeasible, HasIndexProbe/HasIndexScan, the
// EXPLAIN renderer and the compile walk all read its answer, and
// enginetest's TestExplainMatchesCompiledTree checks the last two against
// each other over the conformance matrix.

// physOp is resolve's answer for one node.
type physOp struct {
	// family is the join family a Join/NestJoin (or a groupjoin's nest
	// join) runs as — ImplNestedLoop, ImplHash, ImplMerge or ImplIndex,
	// never ImplAuto — and ImplAuto (zero) for every other node.
	family JoinImpl
	// lk, rk and residual split a join-family predicate into equi-key pairs
	// and the rest (ExtractEquiKeys).
	lk, rk   []tmql.Expr
	residual tmql.Expr
	// probe is the persistent index an ImplIndex operator probes.
	probe IndexProbe
	// src is the source a Select narrows the scan beneath it to: the index
	// lookup FindIndexScan matched, whose filter then checks only the
	// match's residual, or else the range of leadingRange.
	src source
	// ix is the live index an ImplIndex operator or an index-served Select
	// reads, fetched by the compile-time resolver; nil when costing.
	ix *storage.HashIndex
	// infeasible is why the spec cannot run this node ("" when it can): the
	// hash and sort-merge families need an equi-key.
	infeasible string
	// fused marks a Map resolved as the groupjoin: one exec.Join running
	// the nest join fused, with the selection between them as its test.
	fused *algebra.NestJoin
	test  tmql.Expr
}

// noIndexes is the index oracle of a context with no registry.
func noIndexes(string) [][]string { return nil }

// resolve answers for node n under spec. indexesOf enumerates a table's live
// indexes as ordered attribute lists: the storage registry at compile time,
// the statistics catalog at costing time.
func resolve(n algebra.Plan, spec PhysicalSpec, indexesOf func(table string) [][]string) physOp {
	switch n := n.(type) {
	case *algebra.Select:
		if spec.Access == AccessIndex {
			if m, ok := FindIndexScan(n, indexesOf); ok {
				return physOp{src: source{index: m}}
			}
			// No usable index on this selection: scan fallback.
		}
		if r, ok := leadingRange(n); ok {
			return physOp{src: source{rng: r}}
		}
	case *algebra.Map:
		if nj, test := groupjoin(n); nj != nil {
			op := resolveJoin(nj.Pred, nj.LVar, nj.RVar, nj.R, true, spec, indexesOf)
			if op.infeasible == "" {
				op.fused, op.test = nj, test
				return op
			}
		}
	case *algebra.Join:
		return resolveJoin(n.Pred, n.LVar, n.RVar, n.R, false, spec, indexesOf)
	case *algebra.NestJoin:
		return resolveJoin(n.Pred, n.LVar, n.RVar, n.R, true, spec, indexesOf)
	}
	return physOp{}
}

// groupjoin matches the pipeline a Table 2 grouping predicate P translates
// to, Map[(a = x.a, …)](x) ∘ Select[P(x.nj)](x) ∘ X △[…; nj] Y, where the map
// projects exactly back onto the left element's labels. It returns the nest
// join and P as the fused test, in which the group variable nj stands for
// x.nj; nil when the stack has another shape or P cannot be rewritten.
func groupjoin(m *algebra.Map) (*algebra.NestJoin, tmql.Expr) {
	sel, ok := m.In.(*algebra.Select)
	if !ok {
		return nil, nil
	}
	nj, ok := sel.In.(*algebra.NestJoin)
	if !ok || sel.Var != nj.LVar || !stripsLabel(m, nj) {
		return nil, nil
	}
	if test := groupTest(sel.Pred, sel.Var, nj.Label); test != nil {
		return nj, test
	}
	return nil, nil
}

// stripsLabel reports whether m's output is the tuple (f = v.f, …) over the
// labels of nj's left element, v being m's variable: over nj's output
// (bound, so the labels are distinct and present), that is every label but
// nj's own.
func stripsLabel(m *algebra.Map, nj *algebra.NestJoin) bool {
	cons, ok := m.Out.(*tmql.TupleCons)
	if !ok || len(cons.Fields) != len(nj.L.Elem().Fields) {
		return false
	}
	for _, f := range cons.Fields {
		sel, ok := f.E.(*tmql.FieldSel)
		if !ok || sel.Label != f.Label || f.Label == nj.Label {
			return false
		}
		if v, ok := sel.X.(*tmql.Var); !ok || v.Name != m.Var {
			return false
		}
	}
	return true
}

// groupTest rewrites p, a predicate over the nest join's output row v, into
// the fused test over the left row v and the group variable label: each
// free v.label becomes label, and every other field of v is read off the
// left row, which has the same fields but label. It returns nil when p reads
// v whole or already uses the name label, which the rewrite could capture.
func groupTest(p tmql.Expr, v, label string) tmql.Expr {
	ok := true
	test := tmql.Rewrite(p, func(n tmql.Expr, bound map[string]int) (tmql.Expr, bool) {
		ok = ok && bound[label] == 0 // no binder of label is in scope
		switch n := n.(type) {
		case *tmql.FieldSel:
			if x, isVar := n.X.(*tmql.Var); isVar && x.Name == v && bound[v] == 0 {
				if n.Label == label {
					return &tmql.Var{Name: label}, true
				}
				return n, true
			}
		case *tmql.Var: // label unused, v read only through its fields
			ok = ok && n.Name != label && (n.Name != v || bound[v] > 0)
		}
		return nil, false
	})
	if !ok {
		return nil
	}
	return test
}

// needsEquiKey reports whether the family cannot run a join without an
// extractable equi-key.
func needsEquiKey(impl JoinImpl) bool { return impl == ImplHash || impl == ImplMerge }

// resolveJoin resolves a join-family node: r is the right operand, nest
// distinguishes the nest join from the flat variants.
func resolveJoin(pred tmql.Expr, lvar, rvar string, r algebra.Plan, nest bool,
	spec PhysicalSpec, indexesOf func(string) [][]string) physOp {
	var op physOp
	op.lk, op.rk, op.residual = ExtractEquiKeys(pred, lvar, rvar)
	impl := spec.Joins
	if impl == ImplIndex {
		if pr, ok := FindIndexProbe(r, rvar, op.rk, indexesOf); ok {
			op.family, op.probe = ImplIndex, pr
			return op
		}
		impl = ImplAuto // no usable index on this operator: the auto mapping
	}
	switch {
	case len(op.lk) == 0:
		// Costed and rendered as the nested loop it would have to be;
		// callers that execute check infeasible first.
		op.family = ImplNestedLoop
		if needsEquiKey(impl) {
			op.infeasible = "no equi-key in " + tmql.Format(pred)
		}
	case impl == ImplAuto, impl == ImplMerge && !nest:
		op.family = ImplHash // flat joins have no merge variant
	default:
		op.family = impl
	}
	return op
}

// describe names the resolved operator as EXPLAIN prints it: a join prefixed
// with its method (NLJoin, HashSemiJoin, IdxSemiJoin using Y(d), …), an
// index-served selection with the predicate its filter still checks, and a
// scan with the source the selections above it narrowed it to, src. Nodes
// with a single physical form keep their logical description.
func (op physOp) describe(n algebra.Plan, src source) string {
	desc := n.Describe()
	if op.fused != nil {
		// The groupjoin: the nest join with its test after a bar,
		// HashNestJoin[x.b = y.b; y.a; nj_2 | x.a SUBSETEQ nj_2](x, y).
		desc = op.fused.Describe()
		i := strings.LastIndex(desc, "](")
		desc = desc[:i] + " | " + tmql.Format(op.test) + desc[i:]
	}
	switch n := n.(type) {
	case *algebra.Scan:
		return desc + src.describe(n)
	case *algebra.Select:
		if r := op.src.index.Residual; op.src.indexed() {
			if r == nil {
				r = &tmql.Lit{V: value.Bool(true)} // the index covers the whole predicate
			}
			return fmt.Sprintf("Select[%s](%s)", tmql.Format(r), n.Var)
		}
	}
	switch op.family {
	case ImplIndex:
		desc = fmt.Sprintf("Idx%s using %s(%s)", desc, op.probe.Table, op.probe.Name())
	case ImplNestedLoop:
		desc = "NL" + desc
	case ImplMerge:
		desc = "Merge" + desc
	case ImplHash:
		desc = "Hash" + desc
	}
	return desc
}

// source is what the selections above a scan narrowed it to, passed down
// through selections and wrapper maps by the compile walk and the Explain
// walk alike: a leading-label range, or an index lookup (index.Depth > 0,
// read through ix at compile time).
type source struct {
	rng   storage.KeyRange
	index IndexScanMatch
	ix    *storage.HashIndex
}

// indexed reports whether the source is an index lookup.
func (s source) indexed() bool { return s.index.Depth > 0 }

// describe is the scan line's suffix naming the source: a∈[2, 4) for a
// range, using X(b) with prefix=N and points=N where they apply for an
// index lookup, nothing for the whole table.
func (s source) describe(scan *algebra.Scan) string {
	m := s.index
	switch {
	case s.indexed():
		desc := fmt.Sprintf(" using %s(%s)", m.Table, m.Name())
		if m.Depth < len(m.IndexAttrs) {
			desc += fmt.Sprintf(" prefix=%d", m.Depth)
		}
		if len(m.Points) > 1 {
			desc += fmt.Sprintf(" points=%d", len(m.Points))
		}
		return desc
	case s.rng.Bounded():
		return fmt.Sprintf(" %s∈%s", scan.Elem().Fields[0].Label, s.rng)
	}
	return ""
}

// beneath returns op as node n runs beneath src: below an index source a
// selection is a plain filter over the looked-up rows, as every other node
// is what it resolved to.
func (op physOp) beneath(n algebra.Plan, src source) physOp {
	if _, ok := n.(*algebra.Select); ok && src.indexed() {
		return physOp{}
	}
	return op
}

// inputSource returns the source of the scan beneath n, given src, the one
// the nodes above n narrowed it to: an index-served selection hands its
// lookup down, any other selection intersects src's range with its own (a
// selection below an index source keeps it), and a wrapper Map passes src
// on — the nodes chainScan sees through. Every other node, a groupjoin
// included, reads its inputs whole. Compile and Explain both descend by it.
func (op physOp) inputSource(n algebra.Plan, src source) source {
	switch n := n.(type) {
	case *algebra.Select:
		switch {
		case src.indexed():
			return src
		case op.src.indexed():
			return source{index: op.src.index, ix: op.ix}
		}
		return source{rng: intersect(src.rng, op.src.rng)}
	case *algebra.Map:
		if op.fused == nil && algebra.WrapperLabel(n) != "" {
			return src
		}
	}
	return source{}
}

// inputs are the plan nodes the resolved operator reads: a groupjoin reads
// its nest join's operands, every other operator its node's children.
func (op physOp) inputs(n algebra.Plan) []algebra.Plan {
	if op.fused != nil {
		return op.fused.Children()
	}
	return n.Children()
}

// resolve is the costing-side resolver, against the statistics catalog's
// index view.
func (e *Estimator) resolve(n algebra.Plan, spec PhysicalSpec) physOp {
	return resolve(n, spec, e.stats.Indexes)
}

// resolve is the compile-time resolver, against the live index registry of
// the execution context. For an index-served node it also fetches the
// *HashIndex snapshot the operator will read (op.ix): resolving at compile
// time (rather than Open) pins the query to the index state it was compiled
// against — buckets are copy-on-write, so the snapshot stays probeable even
// if the registry entry is dropped mid-query — and a miss (the index vanished
// between the match and the fetch) re-resolves without indexes, so concurrent
// CreateIndex/DropIndex churn never fails a query.
func (p *Planner) resolve(n algebra.Plan) physOp {
	op := resolve(n, p.spec, p.liveIndexes)
	var table string
	var attrs []string
	switch {
	case op.src.indexed():
		table, attrs = op.src.index.Table, op.src.index.IndexAttrs
	case op.family == ImplIndex:
		table, attrs = op.probe.Table, op.probe.IndexAttrs
	default:
		return op
	}
	if t, ok := p.table(table); ok {
		if op.ix, ok = t.IndexOn(attrs); ok {
			return op
		}
	}
	return resolve(n, p.spec, noIndexes)
}

// table looks a table up in the planner's execution context, if it has one.
func (p *Planner) table(name string) (*storage.Table, bool) {
	if p.ctx == nil || p.ctx.DB == nil {
		return nil, false
	}
	return p.ctx.DB.Table(name)
}

// liveIndexes is the compile-time index oracle: the live indexes of a table
// in the planner's execution context.
func (p *Planner) liveIndexes(table string) [][]string {
	t, ok := p.table(table)
	if !ok {
		return nil
	}
	return t.Indexes()
}

// firstOp returns the first node of the plan, in preorder, that resolves
// under spec to an operator satisfying pred.
func firstOp(p algebra.Plan, spec PhysicalSpec, indexesOf func(string) [][]string, pred func(physOp) bool) (physOp, bool) {
	if op := resolve(p, spec, indexesOf); pred(op) {
		return op, true
	}
	for _, ch := range p.Children() {
		if op, ok := firstOp(ch, spec, indexesOf, pred); ok {
			return op, true
		}
	}
	return physOp{}, false
}

// HasIndexProbe reports whether any join-family operator in the plan can be
// served by a live persistent index — the condition under which Choose adds
// the idxjoin family to the candidate enumeration.
func (e *Estimator) HasIndexProbe(p algebra.Plan) bool {
	_, ok := firstOp(p, PhysicalSpec{Joins: ImplIndex}, e.stats.Indexes,
		func(op physOp) bool { return op.family == ImplIndex })
	return ok
}

// HasIndexScan reports whether any selection in the plan can be served by a
// live persistent index — the condition under which Choose adds the idxscan
// access path to the candidate enumeration.
func (e *Estimator) HasIndexScan(p algebra.Plan) bool {
	_, ok := firstOp(p, PhysicalSpec{Access: AccessIndex}, e.stats.Indexes,
		func(op physOp) bool { return op.src.indexed() })
	return ok
}

// ImplInfeasible reports why a plan cannot run under the given join
// implementation ("" when it can): the hash and sort-merge families require
// an extractable equi-key on every join-family operator. The idxjoin family
// is always feasible — an operator without a usable index falls back to the
// auto mapping.
func ImplInfeasible(p algebra.Plan, impl JoinImpl) string {
	if !needsEquiKey(impl) {
		return ""
	}
	op, _ := firstOp(p, PhysicalSpec{Joins: impl}, noIndexes,
		func(op physOp) bool { return op.infeasible != "" })
	return op.infeasible
}

// contains reports whether some node of the plan, the root included, is one
// of the given operator kinds — a Join or NestJoin anywhere means the
// join-implementation choice can affect execution, a NestJoin anywhere that
// sort-merge can.
func contains(p algebra.Plan, kinds func(algebra.Plan) bool) bool {
	if kinds(p) {
		return true
	}
	for _, ch := range p.Children() {
		if contains(ch, kinds) {
			return true
		}
	}
	return false
}

func isJoinFamily(p algebra.Plan) bool {
	switch p.(type) {
	case *algebra.Join, *algebra.NestJoin:
		return true
	}
	return false
}

func isNestJoin(p algebra.Plan) bool {
	_, ok := p.(*algebra.NestJoin)
	return ok
}
