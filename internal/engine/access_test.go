package engine

import (
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

func accessEngine(t *testing.T) *Engine {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 120, NY: 360, NZ: 240, Keys: 24, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 3,
	})
	return New(cat, db)
}

// TestIndexScanChosen is the acceptance test for index-backed access paths:
// after CreateIndex on the selection attribute, EXPLAIN lists an idxscan
// candidate, the optimizer picks it, and the result matches the scan path
// byte for byte.
func TestIndexScanChosen(t *testing.T) {
	eng := accessEngine(t)
	const q = `SELECT x FROM X x WHERE x.b = 3`

	before, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Access == planner.AccessIndex {
		t.Fatal("index access chosen before any index exists")
	}

	if err := eng.CreateIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Access != planner.AccessIndex {
		t.Errorf("auto picked access=%s, want idxscan", res.Access)
	}
	if value.Key(res.Value) != value.Key(before.Value) {
		t.Error("index-scan result differs from scan result")
	}

	out, err := eng.Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "access=idxscan") || !strings.Contains(out, "IndexScan(X) using X(b)") {
		t.Errorf("EXPLAIN does not render the chosen index scan:\n%s", out)
	}
	if !strings.Contains(out, "+idxscan") {
		t.Errorf("candidate table lacks the idxscan access column:\n%s", out)
	}
}

// TestCompositeIndexScanPrefixAndResidual: a composite index serves
// multi-attribute equality conjuncts; a partially covering conjunct set
// probes the prefix and keeps the rest as residual.
func TestCompositeIndexScanPrefixAndResidual(t *testing.T) {
	eng := accessEngine(t)
	if err := eng.CreateIndex("Y", "b", "a"); err != nil {
		t.Fatal(err)
	}

	// Full composite coverage: both conjuncts disappear into the probe.
	const full = `SELECT y.d FROM Y y WHERE y.b = 3 AND y.a = 1`
	scan, err := eng.Query(full, Options{Access: planner.AccessScan})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := eng.Query(full, Options{Access: planner.AccessIndex})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(scan.Value) != value.Key(idx.Value) {
		t.Error("composite index scan differs from full scan")
	}
	auto, err := eng.Query(full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Access != planner.AccessIndex {
		t.Errorf("auto picked access=%s on a fully covered composite selection", auto.Access)
	}

	// Prefix coverage with residual: only y.b is a leading index attribute;
	// the range conjunct survives as residual.
	const prefix = `SELECT y.d FROM Y y WHERE y.b = 3 AND y.d > 0`
	scanP, err := eng.Query(prefix, Options{Access: planner.AccessScan})
	if err != nil {
		t.Fatal(err)
	}
	idxP, err := eng.Query(prefix, Options{Access: planner.AccessIndex})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(scanP.Value) != value.Key(idxP.Value) {
		t.Error("prefix index scan differs from full scan")
	}
	out, err := eng.Explain(prefix, Options{Access: planner.AccessIndex})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "using Y(b,a) prefix=1") || !strings.Contains(out, "residual[") {
		t.Errorf("EXPLAIN does not render prefix/residual:\n%s", out)
	}
}

// TestAccessPinsAndCacheKeys: pinning AccessScan and AccessIndex yields
// distinct cached plans (the option is part of the cache key) and identical
// results; an AccessIndex pin without any usable index falls back to scans.
func TestAccessPinsAndCacheKeys(t *testing.T) {
	eng := accessEngine(t)
	if err := eng.CreateIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT x FROM X x WHERE x.b = 5`
	a, err := eng.Query(q, Options{Access: planner.AccessScan})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Query(q, Options{Access: planner.AccessIndex})
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit {
		t.Error("differently pinned access paths must not share a cache entry")
	}
	if value.Key(a.Value) != value.Key(b.Value) {
		t.Error("pinned access paths disagree")
	}
	// Unindexable selection under an index pin: per-selection fallback.
	const noIx = `SELECT y.d FROM Y y WHERE y.d = 7`
	c, err := eng.Query(noIx, Options{Access: planner.AccessIndex})
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Query(noIx, Options{Access: planner.AccessScan})
	if err != nil {
		t.Fatal(err)
	}
	if value.Key(c.Value) != value.Key(d.Value) {
		t.Error("index-pin fallback differs from scan")
	}
}

// TestIndexScanInvalidatesOnMutation: a write within the drift bound leaves
// the cached index-scan plan and the statistics it was costed against in
// place — the plan holds no rows, so serving it again is safe — and the
// re-execution sees the new data through the incrementally maintained index.
func TestIndexScanInvalidatesOnMutation(t *testing.T) {
	eng := accessEngine(t)
	if err := eng.CreateIndex("Y", "d"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT y FROM Y y WHERE y.d = 424242`
	res, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Len() != 0 {
		t.Fatalf("sentinel key already present: %d rows", res.Value.Len())
	}
	gen := eng.Stats().Table("Y")
	if _, err := eng.InsertValue("Y", datagen.YRow(1, 2, 3, 424242)); err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Query(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Error("a write within the drift bound must not cost the next read its cached plan")
	}
	if eng.Stats().Table("Y") != gen {
		t.Error("a write within the drift bound recollected Y")
	}
	if res2.Value.Len() != 1 {
		t.Errorf("index scan missed the inserted row: %d rows", res2.Value.Len())
	}
	if res2.Access != planner.AccessIndex {
		t.Errorf("cached plan is not the index scan: access=%s", res2.Access)
	}
	sameAsNaive(t, eng, q, res2)
}

// TestPinnedStrategyChoosesByCost: a pinned strategy narrows the
// translations to its own and nothing else — on indexed tables a pinned
// nest-join plan takes the index scan and the index join by cost, as the
// unpinned planner would, EXPLAIN prints its candidate table, and the result
// still equals naive evaluation.
func TestPinnedStrategyChoosesByCost(t *testing.T) {
	eng := accessEngine(t)
	for _, ix := range [][2]string{{"X", "b"}, {"Y", "d"}} {
		if err := eng.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Strategy: core.StrategyNestJoin}
	for _, c := range []struct {
		q    string
		want func(*Result) bool
	}{
		{`SELECT x FROM X x WHERE x.b = 3`, func(r *Result) bool { return r.Access == planner.AccessIndex }},
		{`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
			func(r *Result) bool { return r.Joins == planner.ImplIndex }},
	} {
		res, err := eng.Query(c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Auto || res.Strategy != core.StrategyNestJoin || !c.want(res) {
			t.Errorf("%s: auto=%v strategy=%s joins=%s access=%s", c.q, res.Auto, res.Strategy, res.Joins, res.Access)
		}
		sameAsNaive(t, eng, c.q, res)
		out, err := eng.Explain(c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out, "strategy=nestjoin ") || !strings.Contains(out, "(fixed)") ||
			!strings.Contains(out, "candidates considered:") || !strings.Contains(out, "← chosen") {
			t.Errorf("%s: pinned EXPLAIN:\n%s", c.q, out)
		}
	}
}

// TestLargeIntKeysMatchNaive: ints beyond 2^53 that round to one float64
// are distinct keys, so an index scan and a hash semijoin on them return
// exactly the rows naive evaluation does.
func TestLargeIntKeysMatchNaive(t *testing.T) {
	eng := accessEngine(t)
	const big = int64(1) << 53 // 9007199254740992
	for _, b := range []int64{big, big + 1} {
		if _, err := eng.InsertValue("X", value.TupleOf(value.F("a", value.EmptySet), value.F("b", value.Int(b)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.InsertValue("Y", datagen.YRow(1, 1, 1, big+1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("X", "b"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		opts Options
	}{
		{`SELECT x.b FROM X x WHERE x.b = 9007199254740993`, Options{Access: planner.AccessIndex}},
		{`SELECT x.b FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d AND y.d > 9007199254740991`,
			Options{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash}},
	} {
		got, err := eng.Query(c.q, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Query(c.q, Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(got.Value, want.Value) || want.Value.Len() != 1 {
			t.Errorf("%s: got %s, naive %s", c.q, got.Value, want.Value)
		}
	}
}
