package planner

import (
	"tmdb/internal/algebra"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

// Index-aware planning support for joins. A join-family operator can be
// served by a persistent table index (storage.Table.CreateIndex) when its
// right operand is a direct scan and a prefix of some live index's attribute
// list is covered by the operator's equi-key pairs: the operator then probes
// the index per left row instead of draining the right input and building a
// hash table. Composite indexes serve multi-key equi-joins — every covered
// pair disappears from the residual, so a covering index removes the
// per-probe residual evaluation single-attribute probes used to pay. The
// shape test runs inside the shared resolver (resolve.go), against the
// storage registry at compile time and the statistics catalog at costing
// time.
//
// (Selections get the analogous treatment in access.go: the same index
// registry serves σ-over-scan shapes through the IndexScan access path.)

// IndexProbe names the persistent index serving a join-family operator's
// right operand and which equi-key pairs its prefix covers.
type IndexProbe struct {
	// Table identifies the scanned extension.
	Table string
	// IndexAttrs is the full ordered attribute list of the chosen index (its
	// canonical registry name is storage.IndexName(IndexAttrs)).
	IndexAttrs []string
	// Depth is the covered prefix length (1 ≤ Depth ≤ len(IndexAttrs)).
	Depth int
	// Pairs lists, for each covered index attribute in order, the position
	// of the equi-key pair that addresses it (len(Pairs) == Depth). The
	// remaining pairs are re-checked as residual predicates.
	Pairs []int
}

// Name returns the index's canonical registry name.
func (pr IndexProbe) Name() string { return storage.IndexName(pr.IndexAttrs) }

// covers reports whether pair i is covered by the probe.
func (pr IndexProbe) covers(i int) bool {
	for _, p := range pr.Pairs {
		if p == i {
			return true
		}
	}
	return false
}

// FindIndexProbe reports how the right operand r (iterated as rvar, with
// right-side equi-key expressions rk) can be probed through a persistent
// index. indexesOf enumerates the live indexes of a table as ordered
// attribute lists — the storage registry at compile time, the statistics
// catalog at costing time. Among the indexes whose leading attributes are
// addressed by equi-key pairs, the longest covered prefix wins (deeper
// probes hit smaller buckets); ties prefer the shorter index, then registry
// order, so the choice is deterministic.
func FindIndexProbe(r algebra.Plan, rvar string, rk []tmql.Expr, indexesOf func(table string) [][]string) (IndexProbe, bool) {
	s, ok := r.(*algebra.Scan)
	if !ok {
		return IndexProbe{}, false
	}
	// Map each right-side attribute addressed as rvar.attr to its pair.
	pairOf := make(map[string]int, len(rk))
	for i, k := range rk {
		fs, ok := k.(*tmql.FieldSel)
		if !ok {
			continue
		}
		v, ok := fs.X.(*tmql.Var)
		if !ok || v.Name != rvar {
			continue
		}
		if _, dup := pairOf[fs.Label]; !dup {
			pairOf[fs.Label] = i
		}
	}
	if len(pairOf) == 0 {
		return IndexProbe{}, false
	}
	var best IndexProbe
	for _, attrs := range indexesOf(s.Table) {
		var pairs []int
		for _, attr := range attrs {
			i, ok := pairOf[attr]
			if !ok {
				break
			}
			pairs = append(pairs, i)
		}
		if len(pairs) == 0 {
			continue
		}
		if len(pairs) > best.Depth || (len(pairs) == best.Depth && len(attrs) < len(best.IndexAttrs)) {
			best = IndexProbe{Table: s.Table, IndexAttrs: attrs, Depth: len(pairs), Pairs: pairs}
		}
	}
	return best, best.Depth > 0
}

// probeLKeys returns the left-side probe-key expressions for the covered
// pairs, in index attribute order — what the exec operators evaluate per
// left row.
func probeLKeys(lk []tmql.Expr, pr IndexProbe) []tmql.Expr {
	out := make([]tmql.Expr, 0, pr.Depth)
	for _, p := range pr.Pairs {
		out = append(out, lk[p])
	}
	return out
}

// indexResidual folds the equi-key pairs not covered by the index probe back
// into the residual predicate: the probe narrows candidates to one bucket,
// and everything else is re-checked per candidate. With a covering composite
// index every pair is consumed and only the original residual (if any)
// survives.
func indexResidual(lk, rk []tmql.Expr, pr IndexProbe, residual tmql.Expr) tmql.Expr {
	var parts []tmql.Expr
	for i := range lk {
		if !pr.covers(i) {
			parts = append(parts, &tmql.Binary{Op: tmql.OpEq, L: lk[i], R: rk[i]})
		}
	}
	if residual != nil {
		parts = append(parts, residual)
	}
	return tmql.JoinAnd(parts)
}
