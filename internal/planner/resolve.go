package planner

import (
	"fmt"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
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
	// fused marks a Map resolved as the join beneath it, run as one
	// exec.Join: the groupjoin, a nest join with the selection between them
	// as its test, or a projection fusion, a Join or NestJoin emitting out,
	// the map's output over the join's two rows (projection).
	fused     algebra.Plan
	test, out tmql.Expr
	// wrap[i] is the label of the wrapper Map the join's i-th operand chains
	// down to through selections when the join's variable binds the wrapped
	// row itself: every expression reads v.wrap as v, and the wrap is never
	// built (bindWraps). "" binds the operand's own rows.
	wrap [2]string
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
		j, test := groupjoin(n)
		var out tmql.Expr
		if j == nil {
			j, out = projection(n)
		}
		if j != nil {
			if op := resolve(j, spec, indexesOf); op.infeasible == "" {
				op.fused, op.test, op.out = j, test, out
				op.bindWraps(j)
				return op
			}
		}
	case *algebra.Join, *algebra.NestJoin:
		return resolveJoin(n, spec, indexesOf)
	}
	return physOp{}
}

// joinParts returns join-family node n's operands, their variables, its
// predicate and, on a nest join, its function.
func joinParts(n algebra.Plan) (in [2]algebra.Plan, vars [2]string, pred, fn tmql.Expr) {
	if nj, ok := n.(*algebra.NestJoin); ok {
		return [2]algebra.Plan{nj.L, nj.R}, [2]string{nj.LVar, nj.RVar}, nj.Pred, nj.Fn
	}
	j := n.(*algebra.Join)
	return [2]algebra.Plan{j.L, j.R}, [2]string{j.LVar, j.RVar}, j.Pred, nil
}

// groupjoin matches the pipeline a Table 2 grouping predicate P translates
// to, Map[(a = x.a, …)](x) ∘ Select[P(x.nj)](x) ∘ X △[…; nj] Y, where the map
// projects exactly back onto the left element's labels. It returns the nest
// join and P as the fused test, in which the group variable nj stands for
// x.nj; nil when the stack has another shape or P cannot be rewritten.
func groupjoin(m *algebra.Map) (algebra.Plan, tmql.Expr) {
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

// projection matches a Map over an inner or left-outer Join, or over a
// NestJoin, whose output reads the joined row v only through its fields and
// compiles without the evaluator. It returns the join and the output over
// the join's two rows, and nil, allocating nothing, for every other Map. A
// flat join's v.f reads the right row where f labels the right element and
// the left row otherwise; a nest join's v.f reads the left row, and its
// group, v.label, becomes the variable label.
func projection(m *algebra.Map) (algebra.Plan, tmql.Expr) {
	var l, r, group string
	right := &types.Type{}
	switch j := m.In.(type) {
	case *algebra.Join:
		if j.Kind != algebra.JoinInner && j.Kind != algebra.JoinLeftOuter {
			return nil, nil
		}
		l, r, right = j.LVar, j.RVar, j.R.Elem()
	case *algebra.NestJoin:
		l, group = j.LVar, j.Label
	default:
		return nil, nil
	}
	if l == group || !readsThrough(m.Var, "", true, m.Out) {
		return nil, nil
	}
	return m.In, tmql.SubstFieldSel(m.Out, func(u, label string) tmql.Expr {
		_, onRight := right.Field(label)
		switch {
		case u != m.Var:
			return nil
		case label == group:
			return &tmql.Var{Name: group}
		case onRight:
			return &tmql.FieldSel{X: &tmql.Var{Name: r}, Label: label}
		}
		return &tmql.FieldSel{X: &tmql.Var{Name: l}, Label: label}
	})
}

// bindWraps decides the wrap bindings of join-family node n resolved as op.
// Operand i binds its wrapped row when it chains down to a wrapper Map
// through selections reading their row only through the wrap's label, every
// expression of the join reads its variable only so, and the join does not
// emit the operand's rows themselves: the left operand's are emitted unless
// a fused projection computes the output, the right operand's by an inner
// join without one and by the outer join, whose pad is the wrapped right
// row. (An index join's right operand is a bare scan, which binds no wrap.)
func (op *physOp) bindWraps(n algebra.Plan) {
	in, vars, pred, fn := joinParts(n)
	binds := [2]bool{op.out != nil, true}
	if j, ok := n.(*algebra.Join); ok {
		binds[1] = j.Kind != algebra.JoinLeftOuter && (j.Kind != algebra.JoinInner || op.out != nil)
	}
	for i, p := range in {
		op.wrap[i] = ""
		if w := wrapBinding(p); binds[i] && w != "" && readsThrough(vars[i], w, false, pred, fn, op.out) {
			op.wrap[i] = w
		}
	}
}

// wrapBinding returns the label of the wrapper Map p chains down to through
// selections each reading its row only through that label, or "".
func wrapBinding(p algebra.Plan) string {
	switch n := p.(type) {
	case *algebra.Map:
		return algebra.WrapperLabel(n)
	case *algebra.Select:
		if w := wrapBinding(n.In); w != "" && readsThrough(n.Var, w, false, n.Pred) {
			return w
		}
	}
	return ""
}

// readsThrough reports, allocating nothing, whether the expressions read
// the variable v only through field selections — of label w, unless w is
// "" — and, with compiled set, whether they stay within the compiled subset
// (compileScalar2: literals, field selections, aggregates, and tuple
// constructors, whose labels the binder keeps distinct), reading no other
// variable. A binder of v inside them only makes the answer more cautious,
// since unwrap leaves the bound occurrences alone.
func readsThrough(v, w string, compiled bool, es ...tmql.Expr) bool {
	ok := true
	for _, e := range es {
		tmql.Walk(e, func(n tmql.Expr) bool {
			switch n := n.(type) {
			case *tmql.FieldSel:
				if x, isVar := n.X.(*tmql.Var); isVar && x.Name == v && (w == "" || n.Label == w) {
					return false
				}
			case *tmql.Var:
				ok = ok && !compiled && n.Name != v
			case *tmql.Lit, *tmql.Agg, *tmql.TupleCons:
			default:
				ok = ok && !compiled
			}
			return ok
		})
	}
	return ok
}

// unwrap rewrites e, which reads each v[i] with w[i] set only as v[i].w[i]
// (readsThrough), to read the wrapped row v[i] binds instead.
func unwrap(e tmql.Expr, v, w [2]string) tmql.Expr {
	if e == nil || w == [2]string{} {
		return e
	}
	return tmql.SubstFieldSel(e, func(u, l string) tmql.Expr {
		if l != "" && (u == v[0] && l == w[0] || u == v[1] && l == w[1]) {
			return &tmql.Var{Name: u}
		}
		return nil
	})
}

// needsEquiKey reports whether the family cannot run a join without an
// extractable equi-key.
func needsEquiKey(impl JoinImpl) bool { return impl == ImplHash || impl == ImplMerge }

// resolveJoin resolves join-family node n, its wrap bindings included.
func resolveJoin(n algebra.Plan, spec PhysicalSpec, indexesOf func(string) [][]string) physOp {
	in, vars, pred, fn := joinParts(n)
	var op physOp
	op.lk, op.rk, op.residual = ExtractEquiKeys(pred, vars[0], vars[1])
	impl := spec.Joins
	if impl == ImplIndex {
		if pr, ok := FindIndexProbe(in[1], vars[1], op.rk, indexesOf); ok {
			op.family, op.probe = ImplIndex, pr
			op.bindWraps(n)
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
	case impl == ImplAuto, impl == ImplMerge && fn == nil:
		op.family = ImplHash // flat joins have no merge variant
	default:
		op.family = impl
	}
	op.bindWraps(n)
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
		// The fused join: a groupjoin with its test after a bar,
		// HashNestJoin[x.b = y.b; y.a; nj_2 | x.a SUBSETEQ nj_2](x, y), a
		// projection with its output after an arrow,
		// HashJoin[j1.x.b = j2.y.d → j1.x.b](j1, j2).
		desc = op.fused.Describe()
		i := strings.LastIndex(desc, "](")
		sep, e := " | ", op.test
		if op.out != nil {
			sep, e = " → ", op.out
		}
		desc = desc[:i] + sep + tmql.Format(e) + desc[i:]
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
// read through ix at compile time). wrap is the label of the wrapper Map a
// join operand binds through (physOp.wrap), passed down the same
// selections to the wrap, which absorbs it.
type source struct {
	rng   storage.KeyRange
	index IndexScanMatch
	ix    *storage.HashIndex
	wrap  string
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

// inputSource returns the source of the scan beneath n's i-th input,
// given src, the one the nodes above n narrowed it to: an index-served
// selection hands its lookup down, any other selection intersects src's
// range with its own (a selection below an index source keeps it), and a
// wrapper Map passes src on — the nodes chainScan sees through — keeping the
// wrap binding only up to itself. A join, fused or not, hands each operand
// its wrap binding, and every other node reads its inputs whole. Compile and
// Explain both descend by it.
func (op physOp) inputSource(n algebra.Plan, src source, i int) source {
	switch n := n.(type) {
	case *algebra.Select:
		switch {
		case src.indexed():
			return src
		case op.src.indexed():
			return source{index: op.src.index, ix: op.ix, wrap: src.wrap}
		}
		return source{rng: intersect(src.rng, op.src.rng), wrap: src.wrap}
	case *algebra.Map:
		if op.fused == nil && algebra.WrapperLabel(n) != "" {
			src.wrap = ""
			return src
		}
	}
	return source{wrap: op.wrap[i]}
}

// inputs are the plan nodes the resolved operator reads: a fused join reads
// its join's operands, every other operator its node's children.
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
