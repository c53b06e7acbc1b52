// Join-order search for flat join blocks. The translation hands the planner
// the block's join graph (algebra.JoinGraph: relations, conjuncts and result
// over the FROM variables) with its FROM-order plan; this file runs a
// Selinger-style dynamic program over the graph: bushy trees by subset
// partitioning, cardinality-based pruning (only the cheapest plan per
// relation subset survives), cross products avoided while a connected split
// exists. Every tree is built by the graph's own Leaf and Join steps, the
// ones the translation's FROM-order fold uses, so a tree equal to the
// translation's builds the same plan and deduplicates against it. The best
// bushy tree and the best left-deep tree are offered to Choose as logical
// alternatives labeled by their join-tree shape.
package planner

import (
	"math/bits"
	"strings"

	"tmdb/internal/algebra"
)

// maxOrderRels caps the DP: 2^n subsets with ~3^n split work is fine through
// eight relations and pathological beyond.
const maxOrderRels = 8

// JoinOrders returns reordered logical alternatives for a flat join block's
// graph (nil for none): the cheapest bushy tree and the cheapest left-deep
// tree under the estimator's cost model, deduplicated against each other;
// the caller dedups against the translation, which is the FROM-order tree.
func (e *Estimator) JoinOrders(b *algebra.Builder, g *algebra.JoinGraph) []StrategyPlan {
	if g == nil || len(g.Rels) > maxOrderRels {
		return nil
	}
	var out []StrategyPlan
	seen := map[string]bool{}
	for _, leftDeepOnly := range []bool{false, true} {
		ent := e.searchJoinOrder(b, g, leftDeepOnly)
		if ent == nil || seen[ent.Label] {
			continue
		}
		seen[ent.Label] = true
		plan, err := g.Finish(b, ent.JoinTree)
		if err != nil {
			continue
		}
		out = append(out, StrategyPlan{Alt: altOrderPrefix + ent.Label, Plan: plan})
		if ent.leftDeep {
			break // the bushy optimum is left-deep; the second DP would repeat it
		}
	}
	return out
}

// orderEntry is one DP cell: the cheapest tree found covering a relation
// subset.
type orderEntry struct {
	*algebra.JoinTree
	work float64
	// leftDeep tracks whether the tree is left-deep (every right operand a
	// single relation) so the dedicated left-deep search can be skipped when
	// the unrestricted optimum already qualifies.
	leftDeep bool
}

// searchJoinOrder runs the subset DP and returns the best entry covering all
// relations (nil when any construction step fails to type-check, which the
// translation's invariants should preclude).
func (e *Estimator) searchJoinOrder(b *algebra.Builder, g *algebra.JoinGraph, leftDeepOnly bool) *orderEntry {
	n := len(g.Rels)
	fvs := g.Refs()
	best := make([]*orderEntry, 1<<uint(n))
	for i := range g.Rels {
		t, err := g.Leaf(b, i)
		if err != nil {
			return nil
		}
		best[1<<uint(i)] = &orderEntry{JoinTree: t, work: e.Estimate(e.Resolve(t.Plan, PhysicalSpec{})).Work, leftDeep: true}
	}
	for mask := uint(1); mask < 1<<uint(n); mask++ {
		if bits.OnesCount(mask) < 2 {
			continue
		}
		// Two passes: connected splits only, then (if the subset has no
		// connected split at all) any split — the cross-product fallback.
		for _, requireConn := range []bool{true, false} {
			for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
				s2 := mask &^ s1
				l, r := best[s1], best[s2]
				if l == nil || r == nil {
					continue
				}
				if leftDeepOnly && bits.OnesCount(s2) != 1 {
					continue
				}
				if requireConn && !connected(fvs, l.Used|r.Used, s1, s2, mask) {
					continue
				}
				t, err := g.Join(b, l.JoinTree, r.JoinTree)
				if err != nil {
					continue
				}
				ent := &orderEntry{
					JoinTree: t, work: e.Estimate(e.Resolve(t.Plan, PhysicalSpec{})).Work,
					leftDeep: l.leftDeep && bits.OnesCount(s2) == 1,
				}
				if best[mask] == nil || ent.work < best[mask].work {
					best[mask] = ent
				}
			}
			if best[mask] != nil {
				break
			}
		}
		if best[mask] == nil {
			return nil
		}
	}
	return best[1<<uint(n)-1]
}

// connected reports whether some unapplied conjunct spans the two sides.
func connected(fvs []uint, used uint, s1, s2, mask uint) bool {
	for i, fv := range fvs {
		if used&(1<<uint(i)) != 0 || fv == 0 {
			continue
		}
		if fv&^mask == 0 && fv&s1 != 0 && fv&s2 != 0 {
			return true
		}
	}
	return false
}

// OrderLabel reports whether alt is a join-order alternative label and, if
// so, its tree rendering.
func OrderLabel(alt string) (string, bool) {
	if strings.HasPrefix(alt, altOrderPrefix) {
		return strings.TrimPrefix(alt, altOrderPrefix), true
	}
	return "", false
}
