package planner

import (
	"fmt"
	"strings"

	"tmdb/internal/algebra"
	"tmdb/internal/value"
)

// Cost-based physical planning: the engine translates the query once per
// candidate unnesting strategy, Alternatives expands each translation into
// its logical alternatives (as translated, §6-rewritten, reordered joins),
// and Choose enumerates those plans × every PhysicalSpec the pin leaves open,
// estimates each feasible combination, and returns the cheapest.

// StrategyPlan is one logical candidate plan: a strategy's translation of a
// query, optionally refined into a labeled logical alternative (the planner
// stays agnostic of the core package to keep the import graph acyclic). An
// empty Alt means AltBase, the translation as produced.
type StrategyPlan struct {
	Strategy string
	// Alt labels the logical alternative this plan embodies: AltBase,
	// AltRewrite, or a join-order label ("order:(x (y z))").
	Alt  string
	Plan algebra.Plan
	// Graph is the join graph when Plan is a flat join block's translation;
	// the join-order search reorders it.
	Graph *algebra.JoinGraph
}

// Candidate is one logical alternative × PhysicalSpec combination considered
// by Choose: the join family and the access path leaf selections read
// through (AccessScan unless an index-scan variant was enumerated).
type Candidate struct {
	Strategy string
	// Alt is the logical-alternative label (AltBase when the strategy's
	// translation ran unmodified).
	Alt string
	PhysicalSpec
	Plan algebra.Plan
	Cost Cost
	// Infeasible is non-empty when the combination cannot execute (e.g. a
	// hash family requested with no equi-key); such candidates are never
	// chosen.
	Infeasible string
	// Chosen marks the winning candidate, and Tree is its plan resolved
	// under its spec (nil on every other candidate, whose trees are dropped
	// once costed).
	Chosen bool
	Tree   *Tree
}

// String renders the candidate as one row of EXPLAIN's candidate table:
// strategy, logical alternative (the "rewrite" column), join family with
// access path, and estimated cost.
func (c Candidate) String() string {
	joins := c.Joins.String()
	if c.Access == AccessIndex {
		joins += "+idxscan"
	}
	alt := c.Alt
	if alt == "" {
		alt = AltBase
	}
	label := fmt.Sprintf("%-9s %-16s × %-11s", c.Strategy, alt, joins)
	switch {
	case c.Infeasible != "":
		return fmt.Sprintf("%s  infeasible: %s", label, c.Infeasible)
	case c.Chosen:
		return fmt.Sprintf("%s  cost≈%.0f  ← chosen", label, c.Cost.Work)
	default:
		return fmt.Sprintf("%s  cost≈%.0f", label, c.Cost.Work)
	}
}

// Choose picks the cheapest feasible logical alternative × PhysicalSpec
// combination by estimated work. Every dimension is orthogonal to the others
// — each plan × join family × access path combination is costed — and pin
// restricts the enumeration per dimension:
//
//   - pin.Joins fixes the join family; ImplAuto enumerates nested-loop and
//     hash, sort-merge for plans with a nest join (the only operator it
//     changes), and idxjoin for plans where a live persistent index can
//     serve a join. Plans without join-family operators collapse to a single
//     ImplAuto candidate, since the choice cannot matter.
//   - pin.Access fixes the access path; AccessAuto enumerates full scans plus
//     an index-scan variant for plans where a live index can serve a
//     selection (AccessIndex still falls back to scans per selection, as
//     ImplIndex falls back per join operator).
//
// Each combination is resolved once (Resolve), and its tree answers both
// whether it is feasible and what it costs. The returned slice reports every
// candidate considered (for EXPLAIN); the returned pointer aliases its
// winning entry, which alone keeps its tree. When a pinned hash or
// sort-merge family leaves no candidate feasible, the error reads
// "<family> join requested but <the first plan's reason>".
func (e *Estimator) Choose(plans []StrategyPlan, pin PhysicalSpec) (*Candidate, []Candidate, error) {
	if len(plans) == 0 {
		return nil, nil, fmt.Errorf("planner: no candidate plans to choose from")
	}
	impls := []JoinImpl{ImplNestedLoop, ImplHash, ImplMerge}
	if pin.Joins != ImplAuto {
		impls = []JoinImpl{pin.Joins}
	}
	var all []Candidate
	best := -1
	var bestTree *Tree
	for _, sp := range plans {
		// One tree under both index dimensions says whether the plan has
		// joins and nest joins, and whether a live persistent index can serve
		// a join (then the idxjoin family joins the enumeration: it skips the
		// right-input drain and build pass where the index applies and falls
		// back to the auto mapping elsewhere) or a selection (then the
		// idxscan access path does).
		probe := e.Resolve(sp.Plan, PhysicalSpec{Joins: ImplIndex, Access: AccessIndex})
		implsHere := impls
		switch {
		case !probe.joins:
			implsHere = []JoinImpl{ImplAuto}
		case pin.Joins == ImplAuto:
			if !probe.nestJoins {
				// Flat joins have no merge variant (resolveJoin lowers it
				// to hash), so sort-merge would only repeat the hash rows.
				implsHere = impls[:2]
			}
			if probe.probes {
				implsHere = append(implsHere[:len(implsHere):len(implsHere)], ImplIndex)
			}
		}
		accesses := []AccessPath{AccessScan}
		switch pin.Access {
		case AccessAuto:
			if probe.scans {
				accesses = append(accesses, AccessIndex)
			}
		case AccessIndex:
			accesses = []AccessPath{AccessIndex}
		}
		alt := sp.Alt
		if alt == "" {
			alt = AltBase
		}
		for _, impl := range implsHere {
			for _, acc := range accesses {
				spec := PhysicalSpec{Joins: impl, Access: acc}
				t := probe
				if spec != probe.Spec {
					t = e.Resolve(sp.Plan, spec)
				}
				if t.Infeasible != "" {
					// Feasibility does not depend on the access path:
					// report an infeasible combination once.
					all = append(all, Candidate{
						Strategy: sp.Strategy, Alt: alt, Plan: sp.Plan, Infeasible: t.Infeasible,
						PhysicalSpec: PhysicalSpec{Joins: impl, Access: AccessScan},
					})
					break
				}
				c := Candidate{Strategy: sp.Strategy, Alt: alt, PhysicalSpec: spec, Plan: sp.Plan}
				c.Cost = e.Estimate(t)
				all = append(all, c)
				if best < 0 || c.Cost.Work < all[best].Cost.Work {
					best, bestTree = len(all)-1, t
				}
			}
		}
	}
	if best < 0 {
		// Every candidate is infeasible, which only a pinned hash or
		// sort-merge family causes, so all[0] carries a reason.
		return nil, all, fmt.Errorf("%s join requested but %s", pin.Joins, all[0].Infeasible)
	}
	all[best].Chosen, all[best].Tree = true, bestTree
	return &all[best], all, nil
}

// Explain renders a resolved tree as the physical operator tree Compile
// builds from it for a query whose slot values are args (nil: the literals'
// own), each node named as resolved and annotated with its estimated rows
// and cost — the body of the engine's EXPLAIN. A narrowed scan prints its
// source after its name: a leading-label range as Scan(Y) a∈[3, 7), an index
// lookup as Scan(X) using X(b). One pass costs the tree bottom-up while it
// lists the operators top-down. The constants, range bounds, point counts
// and estimates are args', so a tree cached for its shape explains any query
// of that shape.
func (e *Estimator) Explain(t *Tree, args []value.Value) string {
	e = &Estimator{stats: e.stats, args: args}
	var lines []string
	var walk func(n *node, depth int) Cost
	walk = func(n *node, depth int) Cost {
		var in [2]Cost
		if n.absorbed {
			// A wrap the join binds through has no operator of its own.
			in[0] = walk(n.in[0], depth)
			return e.cost(n, in)
		}
		i := len(lines)
		lines = append(lines, strings.Repeat("  ", depth)+n.describe(args))
		for k, ch := range n.in {
			if ch != nil {
				in[k] = walk(ch, depth+1)
			}
		}
		c := e.cost(n, in)
		lines[i] += fmt.Sprintf("  (%s)\n", c)
		return c
	}
	walk(t.root, 0)
	return strings.Join(lines, "")
}
