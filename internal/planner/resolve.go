package planner

import (
	"fmt"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Physical resolution: which exec operator each node of a plan becomes
// under a PhysicalSpec. Resolve makes that decision once per plan and spec
// and records it as a Tree, and every reader reads the tree: Choose its
// feasibility and whether an index serves it, Estimate and Explain its
// costs, one pass each, and Compile the operators it builds. The engine's
// plan cache keeps the winning candidate's tree, so an execution served
// from the cache resolves nothing.

// Tree is a plan resolved under a PhysicalSpec: each node holds the
// operator it resolved to, the source its scan chain reads, its expressions
// rewritten for the wrap bindings it runs under, and its resolved inputs. A
// tree is never written after Resolve returns it, so one tree may be
// compiled and costed from many goroutines at once. It names the persistent
// indexes it reads but holds none: Compile fetches each live index by name.
// It holds a query's constants as expressions — index points and range
// bounds among them — which Compile, Estimate and Explain read under a
// query's arguments, so one tree serves every query of its shape.
type Tree struct {
	Spec PhysicalSpec
	// Infeasible is why Spec cannot run the plan ("" when it can): the hash
	// and sort-merge families need an equi-key, and the first join, in
	// preorder, without one names the reason.
	Infeasible string
	root       *node
	// joins and nestJoins report whether the plan has join-family nodes and
	// nest joins, probes whether some join probes a persistent index, and
	// scans whether some selection is served by one. repeats reports that
	// the root may emit a row more than once: it leaves deduplication to
	// the collector (Compile).
	joins, nestJoins, probes, scans, repeats bool
}

// node is one operator of a resolved tree.
type node struct {
	plan algebra.Plan
	// physOp is plan resolved on its own, whatever runs above it: what the
	// cost model reads. A scan, which resolves to nothing, holds the source
	// it reads in rng and index instead: what the selections above it
	// narrowed it to (inputSource).
	physOp
	// pred is a selection's filter predicate: its own, or the residual of
	// the index lookup that serves it, read through the wrap binding above.
	pred tmql.Expr
	// beneath marks a selection beneath an index lookup, a plain filter over
	// the looked-up rows; absorbed a wrapper Map whose join binds its
	// content, which has no operator of its own; dedup a Map below the root
	// that deduplicates its rows (needsDistinct), or whose fused join's rows
	// an identity map deduplicates.
	beneath, absorbed, dedup bool
	// in are the resolved inputs: a fused join's operands, every other
	// node's children; nil past the last.
	in [2]*node
}

// physOp is resolve's answer for one node: the source a selection narrows
// the scan beneath it to on its own — the index lookup FindIndexScan
// matched (index), whose filter then checks only the match's residual, or
// else the bounds of leadingRange (rng) — and the join a join-family node, or
// a Map fused with the join beneath it, runs as.
type physOp struct {
	rng   bounds
	index *IndexScanMatch
	join  *joinOp
}

// joinOp is how a join-family node runs.
type joinOp struct {
	// family is ImplNestedLoop, ImplHash, ImplMerge or ImplIndex, never
	// ImplAuto. infeasible marks a join the spec cannot run: the hash and
	// sort-merge families need an equi-key.
	family     JoinImpl
	infeasible bool
	// lk and rk are the equi-key pairs of the join predicate
	// (ExtractEquiKeys), as the plan writes them.
	lk, rk []tmql.Expr
	// probe is the persistent index an ImplIndex join probes.
	probe *IndexProbe
	// fused is the join a Map resolved as, run as one exec.Join: the
	// groupjoin, a nest join with the selection between them as its test,
	// or a projection fusion, a Join or NestJoin emitting out, the map's
	// output over the join's two rows (projection).
	fused     algebra.Plan
	test, out tmql.Expr
	// wrap[i] is the label of the wrapper Map the join's i-th operand chains
	// down to through selections when the join's variable binds the wrapped
	// row itself: every expression reads v.wrap as v, and the wrap is never
	// built (bind). "" binds the operand's own rows.
	wrap [2]string
	// keys, cond, fn and proj are what the exec.Join evaluates, each read
	// through the wrap bindings: its key lists (the index's probe keys in
	// attribute order under ImplIndex, none under nested loops), what the
	// bucket does not decide (the whole predicate under nested loops), the
	// nest join's function and the fused projection's output.
	keys           [2][]tmql.Expr
	cond, fn, proj tmql.Expr
}

// noIndexes is the index oracle that lists no index: Compile resolves a plan
// against it once an index the plan's tree names is gone.
func noIndexes(string) [][]string { return nil }

// Resolve resolves plan p under spec against the live indexes of the
// estimator's catalog.
func (e *Estimator) Resolve(p algebra.Plan, spec PhysicalSpec) *Tree {
	return resolveTree(p, spec, e.stats.Indexes)
}

// resolveTree resolves p under spec; indexesOf enumerates a table's live
// indexes as ordered attribute lists.
func resolveTree(p algebra.Plan, spec PhysicalSpec, indexesOf func(table string) [][]string) *Tree {
	t := &Tree{Spec: spec}
	t.root = t.resolve(p, source{}, indexesOf)
	// The collector deduplicates the root's rows; the root does not.
	t.repeats, t.root.dedup = t.root.dedup, false
	if _, ok := p.(*algebra.Map); !ok {
		t.repeats = !duplicateFree(p)
	}
	return t
}

// Plan returns the plan t resolves.
func (t *Tree) Plan() algebra.Plan { return t.root.plan }

// resolve resolves plan node p, reading src, and the inputs of the operator
// it becomes.
func (t *Tree) resolve(p algebra.Plan, src source, indexesOf func(string) [][]string) *node {
	n := &node{plan: p, physOp: resolve(p, t.Spec, indexesOf)}
	if j := n.join; j != nil {
		if j.infeasible && t.Infeasible == "" {
			// A Map fuses only a feasible join, so p is the join.
			_, _, pred, _ := joinParts(p)
			t.Infeasible = "no equi-key in " + tmql.Format(pred)
		}
		_, nest := p.(*algebra.NestJoin)
		_, fusedNest := j.fused.(*algebra.NestJoin)
		t.joins, t.nestJoins = true, t.nestJoins || nest || fusedNest
		t.probes = t.probes || j.family == ImplIndex
	}
	t.scans = t.scans || n.index != nil
	var in [2]algebra.Plan
	switch p := p.(type) {
	case *algebra.Scan:
		n.rng, n.index = src.rng, src.index
	case *algebra.Select:
		in[0] = p.In
		n.beneath = src.index != nil
		pred := p.Pred
		if n.served() {
			pred = n.index.Residual
		}
		n.pred = unwrap(pred, [2]string{p.Var}, [2]string{src.wrap})
	case *algebra.Map:
		in[0] = p.In
		n.absorbed, n.dedup = src.wrap != "", needsDistinct(p)
		if j := n.join; j != nil {
			in, _, _, _ = joinParts(j.fused)
			if j.test != nil {
				n.dedup = !duplicateFree(in[0])
			}
		}
	case *algebra.Join, *algebra.NestJoin:
		in, _, _, _ = joinParts(p)
	default:
		copy(in[:], p.Children())
	}
	for i, ch := range in {
		if ch != nil {
			n.in[i] = t.resolve(ch, n.inputSource(src, i), indexesOf)
		}
	}
	return n
}

// resolve answers for node n under spec, against the indexes indexesOf
// lists per table.
func resolve(n algebra.Plan, spec PhysicalSpec, indexesOf func(table string) [][]string) physOp {
	switch n := n.(type) {
	case *algebra.Select:
		if spec.Access == AccessIndex {
			if m, ok := FindIndexScan(n, indexesOf); ok {
				return physOp{index: &m}
			}
			// No usable index on this selection: scan fallback.
		}
		if bs, ok := leadingRange(n); ok {
			return physOp{rng: bs}
		}
	case *algebra.Map:
		j, test := groupjoin(n)
		var out tmql.Expr
		if j == nil {
			j, out = projection(n)
		}
		if j != nil {
			if op := resolveJoin(j, spec, indexesOf, test, out); !op.infeasible {
				op.fused = j
				return physOp{join: op}
			}
		}
	case *algebra.Join, *algebra.NestJoin:
		return physOp{join: resolveJoin(n, spec, indexesOf, nil, nil)}
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

// resolveJoin resolves join-family node n, run with a fused map's test or
// output when they are set, and binds its expressions (bind).
func resolveJoin(n algebra.Plan, spec PhysicalSpec, indexesOf func(string) [][]string, test, out tmql.Expr) *joinOp {
	in, vars, pred, fn := joinParts(n)
	op := &joinOp{test: test, out: out}
	var residual tmql.Expr
	op.lk, op.rk, residual = ExtractEquiKeys(pred, vars[0], vars[1])
	impl := spec.Joins
	if impl == ImplIndex {
		if pr, ok := FindIndexProbe(in[1], vars[1], op.rk, indexesOf); ok {
			op.family, op.probe = ImplIndex, &pr
			op.bind(n, residual)
			return op
		}
		impl = ImplAuto // no usable index on this operator: the auto mapping
	}
	switch {
	case len(op.lk) == 0:
		// Costed and rendered as the nested loop it would have to be;
		// Compile refuses an infeasible tree.
		op.family, op.infeasible = ImplNestedLoop, needsEquiKey(impl)
	case impl == ImplAuto, impl == ImplMerge && fn == nil:
		op.family = ImplHash // flat joins have no merge variant
	default:
		op.family = impl
	}
	op.bind(n, residual)
	return op
}

// bind decides the wrap bindings of join-family node n resolved as op, with
// residual the part of its predicate no equi-key pair holds, and rewrites the
// expressions the exec.Join evaluates to read through them.
// Operand i binds its wrapped row when it chains down to a wrapper Map
// through selections reading their row only through the wrap's label, every
// expression of the join reads its variable only so, and the join does not
// emit the operand's rows themselves: the left operand's are emitted unless
// a fused projection computes the output, the right operand's by an inner
// join without one and by the outer join, whose pad is the wrapped right
// row. (An index join's right operand is a bare scan, which binds no wrap.)
func (op *joinOp) bind(n algebra.Plan, residual tmql.Expr) {
	in, vars, pred, fn := joinParts(n)
	binds := [2]bool{op.out != nil, true}
	if j, ok := n.(*algebra.Join); ok {
		binds[1] = j.Kind != algebra.JoinLeftOuter && (j.Kind != algebra.JoinInner || op.out != nil)
	}
	for i, p := range in {
		if w := wrapBinding(p); binds[i] && w != "" && readsThrough(vars[i], w, false, pred, fn, op.out) {
			op.wrap[i] = w
		}
	}
	keys, cond := [2][]tmql.Expr{op.lk, op.rk}, residual
	switch op.family {
	case ImplIndex:
		keys, cond = [2][]tmql.Expr{probeLKeys(op.lk, *op.probe)}, indexResidual(op.lk, op.rk, *op.probe, residual)
	case ImplNestedLoop:
		keys, cond = [2][]tmql.Expr{}, pred
	}
	for i, ks := range keys {
		op.keys[i] = ks
		if op.wrap != [2]string{} && ks != nil {
			op.keys[i] = make([]tmql.Expr, len(ks))
			for k, e := range ks {
				op.keys[i][k] = unwrap(e, vars, op.wrap)
			}
		}
	}
	op.cond, op.fn, op.proj = unwrap(cond, vars, op.wrap), unwrap(fn, vars, op.wrap), unwrap(op.out, vars, op.wrap)
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

// served reports whether n is a selection its own index lookup serves: one
// not beneath another's lookup, whose filter checks only the residual.
func (n *node) served() bool { return n.index != nil && !n.beneath }

// inputSource returns the source of the scan beneath n's i-th input, given
// src, the one the nodes above n narrowed it to: an index-served selection
// hands its lookup down, any other selection intersects the range with its
// own (a selection below an index source keeps it), and a wrapper Map passes
// it on — the nodes chainScan sees through — keeping the wrap binding only up
// to itself. A join, fused or not, hands each operand its wrap binding, and
// every other node reads its inputs whole.
func (n *node) inputSource(src source, i int) source {
	switch p := n.plan.(type) {
	case *algebra.Select:
		switch {
		case src.index != nil:
			return src
		case n.index != nil:
			return source{index: n.index, wrap: src.wrap}
		}
		return source{rng: intersect(src.rng, n.rng), wrap: src.wrap}
	case *algebra.Map:
		if n.join == nil && algebra.WrapperLabel(p) != "" {
			src.wrap = ""
			return src
		}
	}
	if j := n.join; j != nil {
		return source{wrap: j.wrap[i]}
	}
	return source{}
}

// describe names n's operator as EXPLAIN prints it for a query whose slot
// values are args (nil: the literals' own): a join prefixed with its method
// (NLJoin, HashSemiJoin, IdxSemiJoin using Y(d), …), an index-served
// selection with the predicate its filter still checks, and a scan with the
// source the selections above it narrowed it to. Nodes with a single
// physical form keep their logical description.
func (n *node) describe(args []value.Value) string {
	desc := n.plan.Describe(args)
	j := n.join
	if j != nil && j.fused != nil {
		// The fused join: a groupjoin with its test after a bar,
		// HashNestJoin[x.b = y.b; y.a; nj_2 | x.a SUBSETEQ nj_2](x, y), a
		// projection with its output after an arrow,
		// HashJoin[j1.x.b = j2.y.d → j1.x.b](j1, j2).
		desc = j.fused.Describe(args)
		i := strings.LastIndex(desc, "](")
		sep, e := " | ", j.test
		if j.out != nil {
			sep, e = " → ", j.out
		}
		desc = desc[:i] + sep + tmql.FormatArgs(e, args) + desc[i:]
	}
	switch p := n.plan.(type) {
	case *algebra.Scan:
		return desc + n.describeSource(p, args)
	case *algebra.Select:
		if n.served() {
			r := n.index.Residual
			if r == nil {
				r = &tmql.Lit{V: value.Bool(true)} // the index covers the whole predicate
			}
			return fmt.Sprintf("Select[%s](%s)", tmql.FormatArgs(r, args), p.Var)
		}
	}
	switch {
	case j == nil:
		return desc
	case j.family == ImplIndex:
		return fmt.Sprintf("Idx%s using %s(%s)", desc, j.probe.Table, j.probe.Name())
	}
	return [...]string{ImplNestedLoop: "NL", ImplHash: "Hash", ImplMerge: "Merge"}[j.family] + desc
}

// source is what the selections above a scan narrowed it to, passed down
// through selections and wrapper maps: a leading-label range, or an index
// lookup, or neither, the whole table. wrap is the label of the wrapper Map a
// join operand binds through (joinOp.wrap), passed down the same selections
// to the wrap, which absorbs it.
type source struct {
	rng   bounds
	index *IndexScanMatch
	wrap  string
}

// describeSource is a scan line's suffix naming the source op holds under
// args: a∈[2, 4) for a range, using X(b) with prefix=N and points=N (the
// distinct ones) where they apply for an index lookup, nothing for the whole
// table.
func (op physOp) describeSource(scan *algebra.Scan, args []value.Value) string {
	switch m := op.index; {
	case m != nil:
		desc := fmt.Sprintf(" using %s(%s)", m.Table, m.Name())
		if m.Depth < len(m.IndexAttrs) {
			desc += fmt.Sprintf(" prefix=%d", m.Depth)
		}
		if n := m.distinctPoints(args); n > 1 {
			desc += fmt.Sprintf(" points=%d", n)
		}
		return desc
	case op.rng != nil:
		if r := op.rng.keyRange(args); r.Bounded() {
			return fmt.Sprintf(" %s∈%s", scan.Elem().Fields[0].Label, r)
		}
	}
	return ""
}
