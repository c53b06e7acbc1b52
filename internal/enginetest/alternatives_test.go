package enginetest

import (
	"strings"
	"testing"

	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// TestConformanceAlternativesByteIdentical is the correctness condition for
// the unified optimizer's logical alternatives: for every golden query, the
// free-choosing optimizer and each pinned logical alternative (as-translated,
// §6 rewrite, every join order) must produce byte-identical results —
// rewrites must never change semantics, the paper's side condition for
// flattening.
func TestConformanceAlternativesByteIdentical(t *testing.T) {
	totalAlts := 0
	for _, g := range Goldens {
		t.Run(g.Name, func(t *testing.T) {
			eng := OpenDB(g.DB)
			free, err := eng.Query(g.Query, engine.Options{})
			if err != nil {
				t.Fatalf("free choice: %v", err)
			}
			freeKey := value.Key(free.Value)
			cands, err := eng.PlanCandidates(g.Query, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			alts := map[string]bool{}
			for _, c := range cands {
				if c.Infeasible == "" {
					alts[c.Alt] = true
				}
			}
			if len(alts) == 0 {
				t.Fatal("no feasible alternatives enumerated")
			}
			for alt := range alts {
				res, err := eng.Query(g.Query, engine.Options{PinAlt: alt})
				if err != nil {
					t.Errorf("pin %s: %v", alt, err)
					continue
				}
				totalAlts++
				if res.Alt != alt {
					t.Errorf("pin %s executed alternative %s", alt, res.Alt)
				}
				if value.Key(res.Value) != freeKey {
					t.Errorf("alternative %s is not byte-identical to the free choice", alt)
				}
			}
		})
	}
	// The matrix must actually exercise non-base alternatives, or the
	// generator has gone stale.
	if totalAlts == 0 {
		t.Fatal("no alternatives ran")
	}
}

// TestConformanceRewriteAndOrdersEnumerated pins the golden set's coverage:
// at least one golden must generate a rewrite alternative that wins, one
// must keep the nested original (base) despite peers, and one must generate
// join-order alternatives.
func TestConformanceRewriteAndOrdersEnumerated(t *testing.T) {
	rewriteWins, baseWinsWithPeers, ordersSeen := false, false, false
	for _, g := range Goldens {
		eng := OpenDB(g.DB)
		res, err := eng.Query(g.Query, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		cands, err := eng.PlanCandidates(g.Query, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		peers := map[string]bool{}
		for _, c := range cands {
			peers[c.Alt] = true
			if _, ok := planner.OrderLabel(c.Alt); ok {
				ordersSeen = true
			}
		}
		switch {
		case res.Alt == planner.AltRewrite:
			rewriteWins = true
		case res.Alt == planner.AltBase && len(peers) > 1:
			baseWinsWithPeers = true
		}
	}
	if !rewriteWins {
		t.Error("no golden has the §6 rewrite alternative winning")
	}
	if !baseWinsWithPeers {
		t.Error("no golden keeps the original translation against enumerated peers")
	}
	if !ordersSeen {
		t.Error("no golden generates join-order alternatives")
	}
}

// TestConformanceExplainShowsAlternatives: EXPLAIN on the flagship goldens
// must render the alternative column and the candidate table rows for
// rewrites and join orders — and, on a plan without a nest join, no
// sort-merge rows, which would only repeat the hash rows.
func TestConformanceExplainShowsAlternatives(t *testing.T) {
	for _, g := range Goldens {
		if g.Name != "rewrite-pushdown-wins" && g.Name != "three-table-join-order" && g.Name != "filtered-flat-join" {
			continue
		}
		eng := OpenDB(g.DB)
		out, err := eng.Explain(g.Query, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !strings.Contains(out, "alt=") || !strings.Contains(out, "candidates considered:") {
			t.Errorf("%s: Explain misses alternatives:\n%s", g.Name, out)
		}
		if g.Name == "rewrite-pushdown-wins" && !strings.Contains(out, "alt=rewrite") {
			t.Errorf("%s: rewrite must win:\n%s", g.Name, out)
		}
		if g.Name == "three-table-join-order" && !strings.Contains(out, "order:(") {
			t.Errorf("%s: no join-order candidates:\n%s", g.Name, out)
		}
		if g.Name == "filtered-flat-join" && strings.Contains(out, "sort-merge") {
			t.Errorf("%s: sort-merge candidates for a plan without a nest join:\n%s", g.Name, out)
		}
	}
}
