package enginetest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/value"
)

// fuzzQueries are the shapes the property runs over generated schemas: each
// exercises a different translation path (semijoin, antijoin, nest join,
// flat join, chain, SELECT-clause nest join, the block builder's FROM
// subqueries, multi-FROM outer block with a correlated subquery and
// multi-FROM inner block, and the non-linear inner block it keeps nested).
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
	`SELECT x FROM (SELECT x FROM X x WHERE x.b < 250) x, (SELECT y FROM Y y WHERE y.a < 3) y WHERE x.b = y.d`,
	`SELECT x FROM X x, Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
	`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y, Z z WHERE y.d = z.d AND x.b = y.b`,
	`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE x.b = z.d`,
}

// rangeTemplates are shapes whose selections compare a table's leading
// label (Y's and Z's first label) with constants, so the planner narrows
// their scans to a range of the chunks: one comparison, two intersected, a
// point restriction inside a semijoin's right input, Z's leading label, and
// the flat join's wrapped scan. Each %s pair is an operator and a constant
// (rangeConjunct), either orientation.
var rangeTemplates = []string{
	`SELECT y FROM Y y WHERE %s`,
	`SELECT y FROM Y y WHERE %s AND %s`,
	`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d AND %s`,
	`SELECT (c = z.c, d = z.d) FROM Z z WHERE %s AND z.d >= 0`,
	`SELECT x.b FROM X x, Y y WHERE x.b = y.d AND %s`,
}

// projectionQueries are shapes whose final map runs, fused, inside the probe
// of the join beneath it, each under a strategy (the zero value leaves it to
// the cost-based choice): a flat join projecting fields of all three
// relations with a leading-label restriction on the middle one, a
// projection outside the compiled subset, which stays a map over the joined
// rows, the outer join's NULL pads under the outerjoin strategy, and MAX
// over a nest join's groups, which fails on a dangling row exactly where
// naive evaluation does. (A map reading the joined row whole cannot be
// written: a block's result reads it through its relations' labels.)
var projectionQueries = []fuzzCase{
	{`SELECT (xb = x.b, ya = y.a, zc = z.c) FROM X x, Y y, Z z WHERE x.b = y.d AND y.d = z.d AND y.a < 3`, core.StrategyAuto, false},
	{`SELECT x.b + y.a FROM X x, Y y WHERE x.b = y.d`, core.StrategyAuto, false},
	{`SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.d) < 2`, core.StrategyOuterJoin, false},
	{`SELECT (b = x.b, m = MAX(SELECT y.a FROM Y y WHERE x.b = y.d)) FROM X x`, core.StrategyAuto, true},
}

// fuzzCase is a query, the strategy it is pinned to (the zero value leaves
// it to the cost-based choice), and whether it may fail on valid data.
type fuzzCase struct {
	q       string
	pin     core.Strategy
	mayFail bool
}

// rangeConjunct draws a comparison of attr with a constant: any of the five
// operators the range path serves, in either orientation, against a value
// inside, between or outside the generated ones (attr ∈ [0, hi)), written as
// a literal (a parameter slot) or as a closed expression (part of the plan
// shape, evaluated when the plan is made).
func rangeConjunct(r *rand.Rand, attr string, hi int) string {
	op := []string{"=", "<", "<=", ">", ">="}[r.Intn(5)]
	var c string
	switch r.Intn(4) {
	case 0: // a stored value
		c = fmt.Sprint(r.Intn(hi))
	case 1: // between two stored values
		c = fmt.Sprintf("%d.5", r.Intn(hi))
	case 2: // below every one
		c = fmt.Sprint(-1 - r.Intn(3))
	default: // above every one
		c = fmt.Sprint(hi + r.Intn(3))
	}
	if r.Intn(2) == 0 {
		c = "(" + c + " + 0)"
	}
	if r.Intn(2) == 0 {
		return attr + " " + op + " " + c
	}
	return c + " " + op + " " + attr
}

// fuzzQuery returns query qi: one of fuzzQueries, a range template filled
// from seed, or one of projectionQueries.
func fuzzQuery(spec datagen.Spec, seed int64, qi uint8) fuzzCase {
	n := len(fuzzQueries) + len(rangeTemplates)
	k := int(qi) % (n + len(projectionQueries))
	switch {
	case k < len(fuzzQueries):
		return fuzzCase{q: fuzzQueries[k]}
	case k >= n:
		return projectionQueries[k-n]
	}
	r := rand.New(rand.NewSource(seed))
	tmpl := rangeTemplates[k-len(fuzzQueries)]
	hi := 2 * spec.SetAttrCard // Y.a and Z.c are drawn from [0, hi)
	attr := "y.a"
	if strings.Contains(tmpl, "FROM Z z") {
		attr = "z.c"
	}
	holes := make([]any, strings.Count(tmpl, "%s"))
	for i := range holes {
		holes[i] = rangeConjunct(r, attr, hi)
	}
	return fuzzCase{q: fmt.Sprintf(tmpl, holes...)}
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
// schemas, the cost-based plan's result (under the query's pinned strategy,
// if any) and the paper's fixed nest-join strategy's must equal the naive
// oracle's, and EXPLAIN must render without error; where the oracle fails,
// both must fail with its message. qi picks one of fuzzQueries, a range
// template whose leading-label comparisons the seed draws, so the oracle
// checks the narrowed scans too, or one of projectionQueries. The seed corpus
// covers every query shape and runs under plain `go test`;
// `go test -fuzz=FuzzAutoMatchesNaive` explores further.
func FuzzAutoMatchesNaive(f *testing.F) {
	for qi := range fuzzQueries {
		f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(qi))
	}
	for k := range rangeTemplates {
		for seed := int64(1); seed <= 8; seed++ {
			f.Add(uint8(24), uint8(72), uint8(6), uint8(25), seed, uint8(len(fuzzQueries)+k))
		}
	}
	for k := range projectionQueries {
		qi := uint8(len(fuzzQueries) + len(rangeTemplates) + k)
		f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), qi)
		f.Add(uint8(24), uint8(72), uint8(6), uint8(0), int64(2), qi) // nothing dangles
	}
	// Degenerate corners: single-row tables, all-dangling, single key.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(99), int64(3), uint8(0))
	f.Add(uint8(1), uint8(48), uint8(0), uint8(0), int64(4), uint8(2))
	f.Add(uint8(47), uint8(95), uint8(11), uint8(50), int64(5), uint8(4))

	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64, qi uint8) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng := engine.New(cat, db)
		fc := fuzzQuery(spec, seed, qi)
		q := fc.q

		oracle, oracleErr := eng.Query(q, engine.Options{Strategy: core.StrategyNaive})
		if oracleErr != nil && !fc.mayFail {
			t.Fatalf("naive oracle failed on valid query: %v", oracleErr)
		}
		for _, opts := range []engine.Options{{Strategy: fc.pin}, {Strategy: core.StrategyNestJoin}} {
			got, err := eng.Query(q, opts)
			if oracleErr != nil {
				// The oracle's error names its plan; what failed must match.
				if err == nil || lastClause(err) != lastClause(oracleErr) {
					t.Fatalf("%s: naive failed with %q, planned returned error %v on spec %+v:\nquery: %s",
						opts.Strategy, oracleErr, err, spec, q)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s failed where naive succeeded: %v", opts.Strategy, err)
			}
			if value.Key(got.Value) != value.Key(oracle.Value) {
				t.Fatalf("%s (%s × %s) differs from naive on spec %+v:\nquery: %s",
					opts.Strategy, got.Strategy, got.Joins, spec, q)
			}
			if got.Strategy == core.StrategyKim {
				t.Fatal("auto selected Kim")
			}
		}

		out, err := eng.Explain(q, engine.Options{Strategy: fc.pin})
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		if !strings.HasPrefix(out, "strategy=") || !strings.Contains(out, "rows≈") {
			t.Fatalf("malformed Explain:\n%s", out)
		}
	})
}

// lastClause is an error's message after its last ": ", what failed
// without where.
func lastClause(err error) string {
	msg := err.Error()
	return msg[strings.LastIndex(msg, ": ")+1:]
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
// must stay part of the shape), a SELECT-clause nest, and a restriction
// inside a FROM subquery, whose slot sits in the join graph's leaf.
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
	{`SELECT (b = x.b, a = y.a) FROM (SELECT x FROM X x WHERE x.b <> %d) x, Y y WHERE x.b = y.d`, 1, false},
}

// FuzzShapeReuseMatchesNaive is the plan-cache shape property: on one
// generated engine, bare or (indexed) with the indexes X(b), Y(d) and Y(b,d)
// created before the first query, one template filled with at least four
// literal vectors in turn — so every text after the first of its shape is
// served by a plan built for other constants, whose index points and range
// bounds it must read from its own — must match naive evaluation at auto and
// under a fixed nest-join strategy. A literal byte from 0x80 up draws a
// negative constant. An index lookup's EXPLAIN must count the
// OR template's own distinct constants as its points. The oracle's cache is
// cleared before every answer, so it never reuses a plan. The seed corpus
// covers every template, bare and indexed, and runs under plain `go test`.
func FuzzShapeReuseMatchesNaive(f *testing.F) {
	for qi := range shapeTemplates {
		for _, indexed := range []bool{false, true} {
			f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(qi), []byte{1, 0, 2, 0, 3, 3, 7, 1, 2, 5, 4, 4}, indexed)
		}
	}
	f.Add(uint8(30), uint8(90), uint8(8), uint8(25), int64(2), uint8(4), []byte{1, 0, 0, 2}, false)
	f.Add(uint8(0), uint8(0), uint8(0), uint8(99), int64(3), uint8(2), []byte{0}, false)
	// The OR template's constants first repeat (two points), then differ
	// (three).
	f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(1), uint8(2), []byte{3, 3, 7, 3, 4, 7}, true)
	// Negative constants: a shape planned with one is served with others
	// and with non-negative ones, and the other way round.
	for qi := range shapeTemplates {
		for _, indexed := range []bool{false, true} {
			f.Add(uint8(24), uint8(72), uint8(6), uint8(25), int64(4), uint8(qi), []byte{0x80, 0x83, 3, 0x81, 5, 0x80, 2, 4, 0x90, 1, 0x82, 6}, indexed)
		}
	}
	f.Fuzz(func(t *testing.T, nx, ny, keys, dangPct uint8, seed int64, qi uint8, lits []byte, indexed bool) {
		spec := fuzzSpec(nx, ny, keys, dangPct, seed)
		cat, db := datagen.XYZ(spec)
		eng, oracle := engine.New(cat, db), engine.New(cat, db)
		if indexed {
			for _, ix := range [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}} {
				if err := eng.CreateIndex(ix[0], ix[1:]...); err != nil {
					t.Fatal(err)
				}
			}
		}
		tmpl := shapeTemplates[int(qi)%len(shapeTemplates)]
		vectors := max(4, (len(lits)+tmpl.holes-1)/tmpl.holes)
		for v := 0; v < vectors; v++ {
			args := make([]any, tmpl.holes)
			for h := range args {
				var b byte
				if len(lits) > 0 {
					b = lits[(v*tmpl.holes+h)%len(lits)]
				}
				switch {
				case tmpl.count:
					args[h] = int(b) % 3
				case b >= 0x80:
					args[h] = -int(b&0x7f) - 2 // a negative constant, −2 … −129
				default:
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
				if strings.Contains(tmpl.text, " OR ") {
					checkPoints(t, eng, q, opts, args)
				}
			}
		}
	})
}

// checkPoints holds the EXPLAIN of an OR of equalities served by an index
// lookup to the query's own constants: one point per distinct one.
func checkPoints(t *testing.T, eng *engine.Engine, q string, opts engine.Options, args []any) {
	t.Helper()
	out, err := eng.Explain(q, opts)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", q, err)
	}
	if !strings.Contains(out, " using X(b)") {
		return
	}
	distinct := map[any]bool{}
	for _, a := range args {
		distinct[a] = true
	}
	n, want := len(distinct), " using X(b)  ("
	if n > 1 {
		want = fmt.Sprintf(" using X(b) points=%d  (", n)
	}
	if !strings.Contains(out, want) {
		t.Fatalf("%s (strategy %s): want %d points from its own constants:\n%s", q, opts.Strategy, n, out)
	}
}
