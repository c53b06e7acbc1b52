// Logical-alternative generation: the front half of the unified optimizer.
// The engine translates a query once per unnesting strategy; Alternatives
// expands each translation into its peer logical candidates — the plan as
// translated, its §6-rewritten form, and (for multi-FROM flat-join blocks)
// the join orders found by the join-order search — so Choose can weigh
// nested-vs-flattened forms, rewrites, join orders, physical families,
// access paths and batch sizes on one cost scale.
package planner

import (
	"fmt"

	"tmdb/internal/algebra"
)

// Logical-alternative labels. Join-order alternatives use "order:" followed
// by the join tree over the FROM variables, e.g. "order:((z y) x)".
const (
	// AltBase is the strategy's translation as produced.
	AltBase = "base"
	// AltRewrite is the §6 rewrite fixpoint of the translation.
	AltRewrite = "rewrite"
	// altOrderPrefix prefixes join-order alternative labels.
	altOrderPrefix = "order:"
)

// Alternatives expands strategy translations into logical alternatives:
// every input plan (labeled AltBase), its §6 rewrite when any rule fires
// (AltRewrite), and reordered join trees for flat multi-FROM chains
// ("order:…"). Structural duplicates are dropped, so the slice enumerates
// genuinely distinct plans; input order is preserved (ties in Choose resolve
// to the earliest candidate, keeping the pre-alternative behavior stable).
func (e *Estimator) Alternatives(b *algebra.Builder, sps []StrategyPlan) []StrategyPlan {
	var out []StrategyPlan
	seen := make(map[string]bool)
	add := func(sp StrategyPlan) {
		fp := sp.Strategy + "\x00" + algebra.Explain(sp.Plan)
		if seen[fp] {
			return
		}
		seen[fp] = true
		out = append(out, sp)
	}
	for _, sp := range sps {
		base := sp
		if base.Alt == "" {
			base.Alt = AltBase
		}
		add(base)
		if rw, err := algebra.Optimize(b, sp.Plan); err == nil {
			add(StrategyPlan{Strategy: sp.Strategy, Alt: AltRewrite, Plan: rw})
		}
		for _, ord := range e.JoinOrders(b, sp.Plan) {
			add(StrategyPlan{Strategy: sp.Strategy, Alt: ord.Alt, Plan: ord.Plan})
		}
	}
	return out
}

// PinAlternatives restricts the generated alternatives to the pinned label
// (engine.Options.PinAlt; the conformance harness runs every alternative
// this way). Pinning AltRewrite keeps, per strategy, the rewrite when one
// fired and that strategy's base otherwise — a no-op fixpoint leaves the
// translation in place and the strategy stays in the running. Pinning any
// other absent label is an error.
func PinAlternatives(alts []StrategyPlan, pin string) ([]StrategyPlan, error) {
	if pin == "" {
		return alts, nil
	}
	var kept []StrategyPlan
	if pin == AltRewrite {
		hasRewrite := map[string]bool{}
		for _, a := range alts {
			if a.Alt == AltRewrite {
				hasRewrite[a.Strategy] = true
			}
		}
		for _, a := range alts {
			if a.Alt == AltRewrite || (a.Alt == AltBase && !hasRewrite[a.Strategy]) {
				kept = append(kept, a)
			}
		}
	} else {
		for _, a := range alts {
			if a.Alt == pin {
				kept = append(kept, a)
			}
		}
	}
	if len(kept) > 0 {
		return kept, nil
	}
	return nil, fmt.Errorf("planner: no candidate matches pinned alternative %q", pin)
}
