package planner

import (
	"fmt"

	"tmdb/internal/algebra"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

// Operator resolution: which exec operator a plan node becomes under a
// PhysicalSpec. resolve is the only place that decision is made — the cost
// model, ImplInfeasible, HasIndexProbe/HasIndexScan, the
// EXPLAIN renderer and the compile walk all read its answer, and
// enginetest's TestExplainMatchesCompiledTree checks the last two against
// each other over the conformance matrix.

// physOp is resolve's answer for one node.
type physOp struct {
	// family is the join family a Join/NestJoin runs as — ImplNestedLoop,
	// ImplHash, ImplMerge or ImplIndex, never ImplAuto — and ImplAuto (zero)
	// for every other node.
	family JoinImpl
	// lk, rk and residual split a join-family predicate into equi-key pairs
	// and the rest (ExtractEquiKeys).
	lk, rk   []tmql.Expr
	residual tmql.Expr
	// probe is the persistent index an ImplIndex operator probes.
	probe IndexProbe
	// indexScan marks a Select served through exec.IndexScan as matched by
	// scan.
	indexScan bool
	scan      IndexScanMatch
	// batchNative reports that a batch-native operator exists for the node,
	// built when spec.Batch > 0: scans, scan-served selections, maps and the
	// hash join family (which is batch-only, so row plans reach it through
	// the adapters).
	batchNative bool
	// infeasible is why the spec cannot run this node ("" when it can): the
	// hash and sort-merge families need an equi-key.
	infeasible string
}

// noIndexes is the index oracle of a context with no registry.
func noIndexes(string) [][]string { return nil }

// resolve answers for node n under spec. indexesOf enumerates a table's live
// indexes as ordered attribute lists: the storage registry at compile time,
// the statistics catalog at costing time.
func resolve(n algebra.Plan, spec PhysicalSpec, indexesOf func(table string) [][]string) physOp {
	switch n := n.(type) {
	case *algebra.Scan, *algebra.Map:
		return physOp{batchNative: true}
	case *algebra.Select:
		if spec.Access == AccessIndex {
			if m, ok := FindIndexScan(n, indexesOf); ok {
				return physOp{indexScan: true, scan: m}
			}
			// No usable index on this selection: scan fallback.
		}
		return physOp{batchNative: true}
	case *algebra.Join:
		return resolveJoin(n.Pred, n.LVar, n.RVar, n.R, false, spec, indexesOf)
	case *algebra.NestJoin:
		return resolveJoin(n.Pred, n.LVar, n.RVar, n.R, true, spec, indexesOf)
	}
	return physOp{}
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
	op.batchNative = op.family == ImplHash
	return op
}

// describe names the resolved operator as EXPLAIN prints it, after the exec
// package's operator names (NLJoin, HashSemiJoin, IdxSemiJoin using Y(d),
// IndexScan(X) using X(b), …)
// with a [batch=N] suffix on batch-native operators of a batched plan. Nodes
// with a single physical form keep their logical description.
func (op physOp) describe(n algebra.Plan, spec PhysicalSpec) string {
	desc := n.Describe()
	switch {
	case op.indexScan:
		m := op.scan
		desc = fmt.Sprintf("IndexScan(%s) using %s(%s)", m.Table, m.Table, m.Name())
		if m.Depth < len(m.IndexAttrs) {
			desc += fmt.Sprintf(" prefix=%d", m.Depth)
		}
		if len(m.Points) > 1 {
			desc += fmt.Sprintf(" points=%d", len(m.Points))
		}
		if m.Residual != nil {
			desc += fmt.Sprintf(" residual[%s]", tmql.Format(m.Residual))
		}
	case op.family == ImplIndex:
		desc = fmt.Sprintf("Idx%s using %s(%s)", desc, op.probe.Table, op.probe.Name())
	case op.family == ImplNestedLoop:
		desc = "NL" + desc
	case op.family == ImplMerge:
		desc = "Merge" + desc
	case op.family == ImplHash:
		desc = "Hash" + desc
	}
	if spec.Batch > 0 && op.batchNative {
		desc += fmt.Sprintf("[batch=%d]", spec.Batch)
	}
	return desc
}

// resolve is the costing-side resolver, against the statistics catalog's
// index view.
func (e *Estimator) resolve(n algebra.Plan, spec PhysicalSpec) physOp {
	return resolve(n, spec, e.stats.Indexes)
}

// resolve is the compile-time resolver, against the live index registry of
// the execution context. For an index-served node it also fetches the
// *HashIndex snapshot the operator will probe: resolving at compile time
// (rather than Open) pins the query to the index state it was compiled
// against — buckets are copy-on-write, so the snapshot stays probeable even
// if the registry entry is dropped mid-query — and a miss (the index vanished
// between the match and the fetch) re-resolves without indexes, so concurrent
// CreateIndex/DropIndex churn never fails a query.
func (p *Planner) resolve(n algebra.Plan) (physOp, *storage.HashIndex) {
	op := resolve(n, p.spec, p.liveIndexes)
	var table, name string
	switch {
	case op.indexScan:
		table, name = op.scan.Table, op.scan.Name()
	case op.family == ImplIndex:
		table, name = op.probe.Table, op.probe.Name()
	default:
		return op, nil
	}
	if t, ok := p.table(table); ok {
		if ix, live := t.Index(name); live {
			return op, ix
		}
	}
	return resolve(n, p.spec, noIndexes), nil
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
		func(op physOp) bool { return op.indexScan })
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
