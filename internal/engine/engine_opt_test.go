package engine

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// Tests for the unified optimizer: logical alternatives (§6 rewrites, join
// orders) enumerated inside the candidate search, pin semantics, and the
// bounded LRU plan cache.

// rewriteQ translates to σ over a nest-join projection: the §6 pushdown
// rewrite is a strictly cheaper peer candidate.
const rewriteQ = `SELECT x.b FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b) AND x.b < 0`

// nestedQ is SELECT-clause nesting: the nest-join translation (alt=base)
// must beat the relational alternatives.
const nestedQ = `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`

// multiQ is a three-source flat block: join-order alternatives apply.
const multiQ = `SELECT (xb = x.b, zc = z.c) FROM X x, Y y, Z z WHERE x.b = y.d AND y.b = z.d`

func optEngine(t *testing.T) *Engine {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 120, NY: 360, NZ: 240, Keys: 15, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 3,
	})
	return New(cat, db)
}

// TestAutoPicksRewriteAlternative: the optimizer must choose the §6
// selection-pushdown rewrite on its own — the choice the pre-unified engine
// could not consider — and the result must match the naive oracle.
func TestAutoPicksRewriteAlternative(t *testing.T) {
	eng := optEngine(t)
	oracle, err := eng.Query(rewriteQ, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := eng.Query(rewriteQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Alt != planner.AltRewrite {
		t.Errorf("auto chose alt=%s, want %s", auto.Alt, planner.AltRewrite)
	}
	if !value.Equal(auto.Value, oracle.Value) {
		t.Error("rewrite alternative changed the result")
	}
	out, err := eng.Explain(rewriteQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "alt=rewrite") {
		t.Errorf("Explain header misses the winning alternative:\n%s", out)
	}
	// The candidate table must list base and rewrite as peers.
	if !strings.Contains(out, " base ") || !strings.Contains(out, " rewrite ") {
		t.Errorf("candidate table misses logical alternatives:\n%s", out)
	}
}

// TestAutoKeepsNestedOriginal: the counter-example — on SELECT-clause
// nesting the nest-join translation wins as-is (alt=base) against the
// relational alternatives also enumerated.
func TestAutoKeepsNestedOriginal(t *testing.T) {
	eng := optEngine(t)
	res, err := eng.Query(nestedQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != core.StrategyNestJoin || res.Alt != planner.AltBase {
		t.Errorf("expected nestjoin/base to win, got %s/%s", res.Strategy, res.Alt)
	}
	out, err := eng.Explain(nestedQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "alt=base") || !strings.Contains(out, "candidates considered:") {
		t.Errorf("Explain:\n%s", out)
	}
}

// TestExplainListsJoinOrdersAndDegrees: on a multi-FROM block at an explicit
// degree, the candidate table must list join-order alternatives and
// parallel degrees alongside base.
func TestExplainListsJoinOrdersAndDegrees(t *testing.T) {
	eng := optEngine(t)
	out, err := eng.Explain(multiQ, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "order:(") {
		t.Errorf("no join-order alternatives in candidate table:\n%s", out)
	}
	if !strings.Contains(out, "×4") {
		t.Errorf("no degree-4 candidates in candidate table:\n%s", out)
	}
}

// TestPinAltExecutesEveryAlternative: pinning each enumerated alternative
// must execute and agree with the free choice (the engine-level version of
// the conformance property).
func TestPinAltExecutesEveryAlternative(t *testing.T) {
	eng := optEngine(t)
	multiAlt := map[string]bool{rewriteQ: true, multiQ: true}
	for _, q := range []string{rewriteQ, nestedQ, multiQ} {
		free, err := eng.Query(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cands, err := eng.PlanCandidates(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		alts := map[string]bool{}
		for _, c := range cands {
			if c.Infeasible == "" {
				alts[c.Alt] = true
			}
		}
		if multiAlt[q] && len(alts) < 2 {
			t.Errorf("%s: expected multiple alternatives, got %v", q, alts)
		}
		for alt := range alts {
			res, err := eng.Query(q, Options{PinAlt: alt})
			if err != nil {
				t.Fatalf("pin %s: %v", alt, err)
			}
			if res.Alt != alt {
				t.Errorf("pin %s executed alt %s", alt, res.Alt)
			}
			if !value.Equal(res.Value, free.Value) {
				t.Errorf("pin %s changed the result", alt)
			}
		}
	}
	// An absent label is the same error on both paths: a fixed strategy
	// generates base and rewrite only, so a join-order pin cannot match there.
	_, autoErr := eng.Query(multiQ, Options{PinAlt: "order:(bogus)"})
	_, fixedErr := eng.Query(multiQ, Options{Strategy: core.StrategyNestJoin, PinAlt: "order:(y x)"})
	for path, err := range map[string]error{"auto": autoErr, "fixed": fixedErr} {
		if err == nil || !strings.Contains(err.Error(), "no candidate matches pinned alternative") {
			t.Errorf("%s path: pinning an absent alternative: err = %v", path, err)
		}
	}
}

// TestRewritePinOnBothPaths: PinAlt "rewrite" restricts the auto path to the
// rewrite alternatives (base where no rule fires) and applies the §6 rewrite
// fixpoint on the fixed path; "base" is honoured on both.
func TestRewritePinOnBothPaths(t *testing.T) {
	eng := optEngine(t)
	rewrite := Options{PinAlt: planner.AltRewrite}
	auto, err := eng.Query(rewriteQ, rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Alt != planner.AltRewrite {
		t.Errorf("auto path rewrite pin executed alt=%s", auto.Alt)
	}
	// No rewrite applies → falls back to base instead of erroring.
	plain, err := eng.Query(`SELECT x.b FROM X x`, rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Alt != planner.AltBase {
		t.Errorf("no-op rewrite pin executed alt=%s", plain.Alt)
	}
	fixed, err := eng.Query(rewriteQ, Options{Strategy: core.StrategyNestJoin, PinAlt: planner.AltRewrite})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Alt != planner.AltRewrite || fixed.Auto {
		t.Errorf("fixed path rewrite pin: alt=%s auto=%v", fixed.Alt, fixed.Auto)
	}
	fixedBase, err := eng.Query(rewriteQ, Options{Strategy: core.StrategyNestJoin, PinAlt: planner.AltBase})
	if err != nil {
		t.Fatal(err)
	}
	if fixedBase.Alt != planner.AltBase || algebra.Explain(fixedBase.Plan) == algebra.Explain(fixed.Plan) {
		t.Errorf("fixed path base pin: alt=%s, plan equals the rewritten one: %v", fixedBase.Alt,
			algebra.Explain(fixedBase.Plan) == algebra.Explain(fixed.Plan))
	}
	oracle, err := eng.Query(rewriteQ, Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(fixed.Value, oracle.Value) || !value.Equal(fixedBase.Value, oracle.Value) || !value.Equal(auto.Value, oracle.Value) {
		t.Error("pinned rewrite changed results")
	}
}

// TestPlanCacheLRUEviction: the cache respects its capacity, evicts least
// recently used entries, and reports evictions.
func TestPlanCacheLRUEviction(t *testing.T) {
	eng := optEngine(t)
	eng.SetPlanCacheCapacity(3)
	// Five shapes: texts differing only in the constant would share an entry.
	ops := []string{"=", "<", ">", "<=", ">="}
	queries := make([]string, len(ops))
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT x.b FROM X x WHERE x.b %s %d`, ops[i], i)
		if _, err := eng.Query(queries[i], Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if st.Entries != 3 || st.Capacity != 3 {
		t.Errorf("entries/capacity = %d/%d, want 3/3", st.Entries, st.Capacity)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	// Oldest entries evicted: re-running query 0 must miss, the newest hits.
	if res, _ := eng.Query(queries[4], Options{Parallelism: 1}); !res.CacheHit {
		t.Error("most recent entry should hit")
	}
	if res, _ := eng.Query(queries[0], Options{Parallelism: 1}); res.CacheHit {
		t.Error("evicted entry should miss")
	}
	// Recency, not insertion order: touch an old entry, insert a new one,
	// and the untouched middle entry is the victim.
	eng.ClearPlanCache()
	for _, q := range queries[:3] {
		eng.Query(q, Options{Parallelism: 1})
	}
	eng.Query(queries[0], Options{Parallelism: 1}) // touch 0 → MRU
	eng.Query(queries[3], Options{Parallelism: 1}) // evicts 1
	if res, _ := eng.Query(queries[0], Options{Parallelism: 1}); !res.CacheHit {
		t.Error("touched entry was evicted")
	}
	if res, _ := eng.Query(queries[1], Options{Parallelism: 1}); res.CacheHit {
		t.Error("LRU victim survived")
	}
	// Capacity <= 0 restores the default.
	eng.SetPlanCacheCapacity(0)
	if st := eng.PlanCacheStats(); st.Capacity != DefaultPlanCacheCapacity {
		t.Errorf("capacity reset = %d", st.Capacity)
	}
}
