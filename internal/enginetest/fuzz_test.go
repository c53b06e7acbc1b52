package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/value"
)

// fuzzQueries are the shapes the property runs over generated schemas: each
// exercises a different translation path (semijoin, antijoin, nest join,
// flat join, chain, naive fallback).
var fuzzQueries = []string{
	`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	`SELECT x FROM X x WHERE x.b NOT IN SELECT y.d FROM Y y WHERE x.b = y.d`,
	`SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
	`SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d`,
	`SELECT x FROM X x
 WHERE x.a SUBSETEQ
   SELECT y.a FROM Y y
   WHERE x.b = y.b AND
     y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
	`SELECT (b = x.b, n = COUNT(SELECT y.a FROM Y y WHERE x.b = y.d)) FROM X x`,
}

// fuzzSpec clamps raw fuzz inputs into a valid, small generator spec.
func fuzzSpec(nx, ny, keys, dangPct uint8, seed int64) datagen.Spec {
	return datagen.Spec{
		NX:           1 + int(nx)%48,
		NY:           1 + int(ny)%96,
		NZ:           1 + int(ny)%48,
		Keys:         1 + int(keys)%12,
		DanglingFrac: float64(dangPct%100) / 100,
		SetAttrCard:  1 + int(keys)%4,
		Seed:         seed,
	}
}

// FuzzAutoMatchesNaive is the planner property test: over generated XYZ
// schemas, the cost-based plan's result must equal the naive oracle's, and
// EXPLAIN must render without error. The seed corpus covers every query
// shape and runs under plain `go test`; `go test -fuzz=FuzzAutoMatchesNaive`
// explores further.
func FuzzAutoMatchesNaive(f *testing.F) {
	for qi := range fuzzQueries {
		f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(qi))
	}
	// Degenerate corners: single-row tables, all-dangling, single key.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(99), int64(3), uint8(0))
	f.Add(uint8(1), uint8(48), uint8(0), uint8(0), int64(4), uint8(2))
	f.Add(uint8(47), uint8(95), uint8(11), uint8(50), int64(5), uint8(4))

	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64, qi uint8) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng := engine.New(cat, db)
		q := fuzzQueries[int(qi)%len(fuzzQueries)]

		oracle, err := eng.Query(q, engine.Options{Strategy: core.StrategyNaive})
		if err != nil {
			t.Fatalf("naive oracle failed on valid query: %v", err)
		}
		auto, err := eng.Query(q, engine.Options{})
		if err != nil {
			t.Fatalf("auto failed where naive succeeded: %v", err)
		}
		if !value.Equal(auto.Value, oracle.Value) {
			t.Fatalf("auto (%s × %s) differs from naive on spec %+v:\nquery: %s",
				auto.Strategy, auto.Joins, spec, q)
		}
		if auto.Strategy == core.StrategyKim {
			t.Fatal("auto selected Kim")
		}

		out, err := eng.Explain(q, engine.Options{})
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		if !strings.HasPrefix(out, "strategy=") || !strings.Contains(out, "rows≈") {
			t.Fatalf("malformed Explain:\n%s", out)
		}
	})
}

// FuzzStatsAnalyze hardens the statistics collector against arbitrary
// generator parameters: Analyze must never panic and must report sane
// figures (cardinality within bounds, selectivities in (0, 1]).
func FuzzStatsAnalyze(f *testing.F) {
	f.Add(uint8(10), uint8(20), uint8(3), uint8(30), int64(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng := engine.New(cat, db)
		sc := eng.Analyze()
		for _, name := range sc.Names() {
			ts := sc.Table(name)
			tab, ok := eng.DB().Table(name)
			if !ok || ts.Card != tab.Len() {
				t.Fatalf("%s: card %d", name, ts.Card)
			}
			for attr, d := range ts.Distinct {
				if d <= 0 || d > ts.Card {
					t.Fatalf("%s.%s: distinct %d of %d rows", name, attr, d, ts.Card)
				}
				if s := ts.Selectivity(attr); s <= 0 || s > 1 {
					t.Fatalf("%s.%s: selectivity %v", name, attr, s)
				}
			}
		}
		if fr := sc.DanglingFrac("X", "b", "Y", "d"); fr < 0 || fr > 1 {
			t.Fatalf("dangling fraction %v", fr)
		}
	})
}

// shapeTemplates are query shapes with literal holes (%d): a point lookup, a
// range, an OR of equalities (duplicates when two holes draw one value), a
// point restriction beside a semijoin, a COUNT bound (k ∈ {0, 1, 2}, which
// must stay part of the shape), and a SELECT-clause nest.
var shapeTemplates = []struct {
	text  string
	holes int
	count bool // the holes are COUNT bounds, drawn from {0, 1, 2}
}{
	{`SELECT x FROM X x WHERE x.b = %d`, 1, false},
	{`SELECT y.a FROM Y y WHERE y.d >= %d AND y.d < %d`, 2, false},
	{`SELECT x FROM X x WHERE x.b = %d OR x.b = %d OR x.b = %d`, 3, false},
	{`SELECT x FROM X x WHERE x.b = %d AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`, 1, false},
	{`SELECT x FROM X x WHERE COUNT(SELECT y FROM Y y WHERE x.b = y.d) >= %d`, 1, true},
	{`SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d AND y.a > %d) FROM X x WHERE x.b <> %d`, 2, false},
}

// FuzzShapeReuseMatchesNaive is the plan-cache shape property: on one
// generated engine, one template filled with at least four literal vectors in
// turn — so every text after the first of its shape is served by a plan built
// for other constants — must match naive evaluation at auto and under a fixed
// nest-join strategy. The oracle's cache is cleared before every answer, so
// it never reuses a plan. The seed corpus covers every template and runs
// under plain `go test`.
func FuzzShapeReuseMatchesNaive(f *testing.F) {
	for qi := range shapeTemplates {
		f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(qi), []byte{1, 0, 2, 0, 3, 3, 7, 1, 2, 5, 4, 4})
	}
	f.Add(uint8(30), uint8(90), uint8(8), uint8(25), int64(2), uint8(4), []byte{1, 0, 0, 2})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(99), int64(3), uint8(2), []byte{0})
	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64, qi uint8, lits []byte) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng, oracle := engine.New(cat, db), engine.New(cat, db)
		tmpl := shapeTemplates[int(qi)%len(shapeTemplates)]
		vectors := max(4, (len(lits)+tmpl.holes-1)/tmpl.holes)
		for v := 0; v < vectors; v++ {
			args := make([]any, tmpl.holes)
			for h := range args {
				var b byte
				if len(lits) > 0 {
					b = lits[(v*tmpl.holes+h)%len(lits)]
				}
				if tmpl.count {
					args[h] = int(b) % 3
				} else {
					args[h] = int(b)%(spec.Keys+2) - 1 // absent keys at both ends
				}
			}
			q := fmt.Sprintf(tmpl.text, args...)
			oracle.ClearPlanCache()
			want, err := oracle.Query(q, engine.Options{Strategy: core.StrategyNaive})
			if err != nil {
				t.Fatalf("naive oracle failed on %s: %v", q, err)
			}
			for _, opts := range []engine.Options{{}, {Strategy: core.StrategyNestJoin}} {
				got, err := eng.Query(q, opts)
				if err != nil {
					t.Fatalf("%s (strategy %s): %v", q, opts.Strategy, err)
				}
				if !value.Equal(got.Value, want.Value) {
					t.Fatalf("%s (strategy %s, cache hit %v) on spec %+v:\n got   %d rows %s\n naive %d rows %s",
						q, opts.Strategy, got.CacheHit, spec, got.Value.Len(), got.Value, want.Value.Len(), want.Value)
				}
			}
		}
	})
}
