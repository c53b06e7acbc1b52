package exec

import (
	"fmt"
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/eval"
	"tmdb/internal/schema"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Batch-boundary coverage without a batch-size knob: Split re-chunks any
// input into batches of a chosen size, so every operator can be run with its
// inputs cut into single rows, ragged batches, or one batch of everything —
// and must produce the same result every time.

// splitSizes are the cuts every operator runs under: single-row batches
// (every per-batch boundary crossed per row), a ragged size that leaves a
// partial final batch, and all rows in one batch (0).
var splitSizes = []int{1, 7, 0}

// Split is the test-only splitting source: it re-chunks whatever In produces
// into batches of exactly N rows (the last one shorter), or, with N <= 0,
// into one batch holding every row. Its batches are its own copies, valid
// until its next NextBatch, like any operator's.
type Split struct {
	In   BatchIterator
	N    int
	rows []value.Value
	done bool
	b    []value.Value
}

// Open opens the input.
func (s *Split) Open() error {
	s.rows, s.done = nil, false
	return s.In.Open()
}

// NextBatch returns the next N rows of the input.
func (s *Split) NextBatch() ([]value.Value, bool, error) {
	for !s.done && (s.N <= 0 || len(s.rows) < s.N) {
		bt, ok, err := s.In.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			break
		}
		s.rows = append(s.rows, bt...)
	}
	if len(s.rows) == 0 {
		return nil, false, nil
	}
	n := len(s.rows)
	if s.N > 0 {
		n = min(n, s.N)
	}
	s.b = append(s.b[:0], s.rows[:n]...)
	s.rows = s.rows[n:]
	return s.b, true, nil
}

// Close closes the input.
func (s *Split) Close() error { return s.In.Close() }

// SliceScan emits Rows as zero-copy batches of Size rows, or all of
// them in one batch when Size <= 0.
type SliceScan struct {
	Rows []value.Value
	Size int
	i    int
}

// Open resets the cursor.
func (s *SliceScan) Open() error { s.i = 0; return nil }

// NextBatch returns the next batch of rows.
func (s *SliceScan) NextBatch() ([]value.Value, bool, error) {
	if s.i >= len(s.Rows) {
		return nil, false, nil
	}
	end := len(s.Rows)
	if s.Size > 0 {
		end = min(end, s.i+s.Size)
	}
	b := s.Rows[s.i:end]
	s.i = end
	return b, true, nil
}

// Close is a no-op.
func (s *SliceScan) Close() error { return nil }

// splitDB is the XYZ instance of the split tests, with the indexes the index
// join and index scan cases probe.
func splitDB(t *testing.T) (*schema.Catalog, *storage.DB) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{NX: 40, NY: 80, NZ: 60, Keys: 9, DanglingFrac: 0.3, SetAttrCard: 3, Seed: 30})
	for _, ix := range [][]string{{"Z", "d"}, {"Z", "d", "c"}, {"X", "b"}} {
		if err := db.CreateIndex(ix[0], ix[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	return cat, db
}

// liveIndex returns the index named name (attributes comma-joined) on table,
// as the planner fetches it when it compiles an index operator.
func liveIndex(t *testing.T, db *storage.DB, table, name string) *storage.HashIndex {
	t.Helper()
	tab, ok := db.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	ix, ok := tab.IndexOn(strings.Split(name, ","))
	if !ok {
		t.Fatalf("no index %s(%s)", table, name)
	}
	return ix
}

// naive evaluates a TM query with the naive evaluator over db.
func naive(t *testing.T, cat *schema.Catalog, db *storage.DB, q string) value.Value {
	t.Helper()
	bound, err := tmql.NewBinder(cat).Bind(tmql.MustParse(q))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	v, err := eval.New(db).Eval(bound)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return v
}

// splitCase is one operator tree over split inputs and the naive answer it
// must reproduce byte for byte.
type splitCase struct {
	name string
	// build returns the operator; in wraps each of its input edges.
	build func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator
	// want is the naive evaluator's answer.
	want value.Value
}

// TestSplitBatchesMatchNaive runs every operator with its inputs cut into
// batches of 1, 7 and all rows, and compares each result byte for byte with
// the naive evaluator's answer to the equivalent TM query: scan, filter,
// map and distinct; the join driver over each bucket source × inner, semi,
// anti and left-outer, plus the nest join, with no, compiled and generic
// residuals; ν, ν* and μ; the set operations; and index scans.
func TestSplitBatchesMatchNaive(t *testing.T) {
	cat, db := splitDB(t)
	q := func(src string) value.Value { return naive(t, cat, db, src) }
	scan := func(c *Ctx, table string) BatchIterator { return &TableScan{Ctx: c, Table: table} }
	_, _, zElem := datagen.XYZTypes()

	var cases []splitCase
	for _, tc := range []struct{ name, pred string }{{"compiled", "x.b <= 4"}, {"generic", "x.b % 3 = 0"}} {
		cases = append(cases, splitCase{"filter/" + tc.name, func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			return &Filter{Ctx: c, In: in(scan(c, "X")), Var: "x", Pred: pred(tc.pred)}
		}, q(`SELECT x FROM X x WHERE ` + tc.pred)})
	}
	for _, tc := range []struct{ name, out string }{{"identity", "y"}, {"compiled", "(b = y.b, d = y.d)"}, {"generic", "y.a % 4"}} {
		cases = append(cases, splitCase{"map+distinct/" + tc.name, func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			return &Map{Ctx: c, In: in(scan(c, "Y")), Var: "y", Out: pred(tc.out), Distinct: true}
		}, q(`SELECT ` + tc.out + ` FROM Y y`)})
	}
	cases = append(cases,
		splitCase{"scan", func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			return in(scan(c, "Y"))
		}, q(`Y`)},
		splitCase{"eval-scan", func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			bound, err := tmql.NewBinder(cat).Bind(tmql.MustParse(`SELECT y.a FROM Y y WHERE y.b <= 4`))
			if err != nil {
				t.Fatal(err)
			}
			return in(&EvalScan{Ctx: c, Expr: bound})
		}, q(`SELECT y.a FROM Y y WHERE y.b <= 4`)},
	)

	// The join driver: X ⋈ Z on x.b = z.d under every bucket source — the
	// persistent index both as Z(d) and as the one-attribute prefix of the
	// composite Z(d,c).
	type source struct {
		name   string
		method JoinMethod
		index  string
	}
	sources := []source{{"nl", JoinNL, ""}, {"hash", JoinHash, ""}, {"merge", JoinMerge, ""}, {"index", JoinIndex, "d"}, {"index-prefix", JoinIndex, "d,c"}}
	residuals := []struct{ name, pred string }{{"none", ""}, {"compiled", "x.b <= z.c"}, {"generic", "x.b <= z.c + 1"}}
	for _, res := range residuals {
		cond := "x.b = z.d"
		var residual tmql.Expr
		if res.pred != "" {
			cond += " AND " + res.pred
			residual = pred(res.pred)
		}
		inner := q(`SELECT (a = x.a, b = x.b, c = z.c, d = z.d) FROM X x, Z z WHERE ` + cond)
		anti := q(`SELECT x FROM X x WHERE NOT EXISTS z IN Z (` + cond + `)`)
		outer := value.NewSetBuilder(0)
		for _, r := range inner.Elems() {
			outer.Add(r)
		}
		for _, l := range anti.Elems() {
			outer.Add(l.Concat(nullTuple(zElem)))
		}
		kinds := []struct {
			name string
			kind algebra.JoinKind
			nest bool
			want value.Value
		}{
			{"inner", algebra.JoinInner, false, inner},
			{"semi", algebra.JoinSemi, false, q(`SELECT x FROM X x WHERE EXISTS z IN Z (` + cond + `)`)},
			{"anti", algebra.JoinAnti, false, anti},
			{"outer", algebra.JoinLeftOuter, false, outer.Build()},
			{"nest", 0, true, q(`SELECT (a = x.a, b = x.b, s = SELECT z.c FROM Z z WHERE ` + cond + `) FROM X x`)},
		}
		for _, src := range sources {
			for _, k := range kinds {
				cases = append(cases, splitCase{fmt.Sprintf("join/%s/%s/residual=%s", src.name, k.name, res.name),
					func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
						j := &Join{Ctx: c, Method: src.method, Kind: k.kind, L: in(scan(c, "X")),
							LVar: "x", RVar: "z", RElem: zElem}
						switch src.method {
						case JoinNL:
							j.R, j.Residual = in(scan(c, "Z")), pred(cond)
						case JoinHash, JoinMerge:
							j.R, j.LKeys, j.RKeys, j.Residual = in(scan(c, "Z")), []tmql.Expr{pred("x.b")}, []tmql.Expr{pred("z.d")}, residual
						case JoinIndex:
							j.Ix, j.LKeys, j.Residual = liveIndex(t, c.DB, "Z", src.index), []tmql.Expr{pred("x.b")}, residual
						}
						if k.nest {
							j.Fn, j.Label = pred("z.c"), "s"
						}
						return j
					}, k.want})
			}
		}
	}

	// ν, ν* (the §6 identity X △ Z = ν*(X ⟗ Z)) and μ (scalar elements, and
	// tuple elements undoing a ν).
	nestY := func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
		return &NestIter{Ctx: c, In: in(scan(c, "Y")), Attrs: []string{"a", "c"}, Label: "g"}
	}
	cases = append(cases,
		splitCase{"nest", nestY, q(`SELECT (b = y.b, d = y.d, g = SELECT (a = w.a, c = w.c) FROM Y w WHERE w.b = y.b AND w.d = y.d) FROM Y y`)},
		splitCase{"nest*-over-outer-join", func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			oj := &Join{Ctx: c, Method: JoinHash, Kind: algebra.JoinLeftOuter, L: in(scan(c, "X")), R: in(scan(c, "Z")),
				LVar: "x", RVar: "z", LKeys: []tmql.Expr{pred("x.b")}, RKeys: []tmql.Expr{pred("z.d")}, RElem: zElem}
			return &NestIter{Ctx: c, In: in(oj), Attrs: []string{"c", "d"}, Label: "s", NullAware: true}
		}, q(`SELECT (a = x.a, b = x.b, s = SELECT (c = z.c, d = z.d) FROM Z z WHERE x.b = z.d) FROM X x`)},
		splitCase{"unnest/scalar", func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			return &UnnestIter{Ctx: c, In: in(scan(c, "Y")), Attr: "c", Scalar: true}
		}, q(`SELECT (a = y.a, b = y.b, c = e, d = y.d) FROM Y y, y.c e`)},
		splitCase{"unnest/tuple-over-nest", func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			return &UnnestIter{Ctx: c, In: in(nestY(c, in)), Attr: "g"}
		}, q(`Y`)},
	)

	// Set operations over two overlapping selections of X.
	low, high := `SELECT x FROM X x WHERE x.b <= 5`, `SELECT x FROM X x WHERE x.b >= 3`
	for kind, op := range []string{"UNION", "INTERSECT", "MINUS"} {
		cases = append(cases, splitCase{"setop/" + op, func(c *Ctx, in func(BatchIterator) BatchIterator) BatchIterator {
			return &SetOpIter{Ctx: c, Kind: kind,
				L: in(&Filter{Ctx: c, In: in(scan(c, "X")), Var: "x", Pred: pred("x.b <= 5")}),
				R: in(&Filter{Ctx: c, In: in(scan(c, "X")), Var: "x", Pred: pred("x.b >= 3")})}
		}, q(`(` + low + `) ` + op + ` (` + high + `)`)})
	}

	for _, tc := range cases {
		for _, n := range splitSizes {
			t.Run(fmt.Sprintf("%s/split=%d", tc.name, n), func(t *testing.T) {
				c := NewCtx(db)
				op := tc.build(c, func(it BatchIterator) BatchIterator { return &Split{In: it, N: n} })
				got, err := CollectBatches(op)
				if err != nil {
					t.Fatal(err)
				}
				if value.Key(got) != value.Key(tc.want) {
					t.Errorf("differs from naive evaluation:\n got  %s\n want %s", got, tc.want)
				}
			})
		}
	}
}

// TestIndexScanMatchesNaive covers the table scan with an index source, the
// one that cuts its own batches out of index buckets: one and several
// points, under a filter with no, a compiled and a generic residual.
func TestIndexScanMatchesNaive(t *testing.T) {
	cat, db := splitDB(t)
	for _, tc := range []struct {
		name     string
		points   []int64
		residual string
		where    string
	}{
		{"one-point", []int64{2}, "", "x.b = 2"},
		{"three-points", []int64{1, 2, 40}, "", "x.b = 1 OR x.b = 2 OR x.b = 40"},
		{"residual/compiled", []int64{2, 3}, "x.b >= 3", "(x.b = 2 OR x.b = 3) AND x.b >= 3"},
		{"residual/generic", []int64{2, 3}, "COUNT(x.a) >= 1", "(x.b = 2 OR x.b = 3) AND COUNT(x.a) >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCtx(db)
			s := &TableScan{Ctx: c, Table: "X", Ix: liveIndex(t, db, "X", "b"), Depth: 1}
			for _, p := range tc.points {
				s.Points = append(s.Points, []tmql.Expr{&tmql.Lit{V: value.Int(p)}})
			}
			f := &Filter{Ctx: c, In: s, Var: "x"}
			if tc.residual != "" {
				f.Pred = pred(tc.residual)
			}
			got, err := CollectBatches(f)
			if err != nil {
				t.Fatal(err)
			}
			want := naive(t, cat, db, `SELECT x FROM X x WHERE `+tc.where)
			if value.Key(got) != value.Key(want) {
				t.Errorf("differs from naive evaluation:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestIndexScanRepeatedKeyOnce: points may repeat a key — a literal beside
// a slotted literal whose argument equals it — and the scan, deduplicating
// the encoded keys when it opens, yields that key's bucket once.
func TestIndexScanRepeatedKeyOnce(t *testing.T) {
	cat, db := splitDB(t)
	c := NewCtx(db)
	c.Ev.Args = []value.Value{value.Int(2)}
	s := &TableScan{Ctx: c, Table: "X", Ix: liveIndex(t, db, "X", "b"), Depth: 1, Points: [][]tmql.Expr{
		{&tmql.Lit{V: value.Int(2)}}, {&tmql.Lit{V: value.Int(3)}}, {&tmql.Lit{V: value.Int(7), Slot: 1}},
	}}
	rows, err := drainRows(s)
	if err != nil {
		t.Fatal(err)
	}
	if naive(t, cat, db, `SELECT x FROM X x WHERE x.b = 2`).Len() == 0 {
		t.Fatal("the repeated key's bucket is empty")
	}
	want := naive(t, cat, db, `SELECT x FROM X x WHERE x.b = 2 OR x.b = 3`)
	if got := value.SetOf(rows...); len(rows) != want.Len() || value.Key(got) != value.Key(want) {
		t.Errorf("%d rows %s, want each of %s once", len(rows), got, want)
	}
}

// TestSourcesCutAtDefaultBatchSize pins the sources' batch shape: table
// scans, whole or through one index bucket, evaluated scans and ν emit
// zero-copy batches of exactly DefaultBatchSize rows, the last one shorter.
func TestSourcesCutAtDefaultBatchSize(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("T", types.Tuple(types.F("k", types.Int)))
	same := db.MustCreate("S", types.Tuple(types.F("k", types.Int), types.F("v", types.Int)))
	n := 2*DefaultBatchSize + 5
	elems, sameRows := make([]value.Value, n), make([]value.Value, n)
	for i := range elems {
		elems[i] = tup("k", i)
		sameRows[i] = tup("k", i, "v", 0)
	}
	if err := tab.Load(elems); err != nil {
		t.Fatal(err)
	}
	if err := same.Load(sameRows); err != nil {
		t.Fatal(err)
	}
	if err := same.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	c := NewCtx(db)
	for name, it := range map[string]BatchIterator{
		"table": &TableScan{Ctx: c, Table: "T"},
		"index": &TableScan{Ctx: c, Table: "S", Ix: liveIndex(t, db, "S", "v"), Depth: 1,
			Points: [][]tmql.Expr{{&tmql.Lit{V: value.Int(0)}}}},
		"eval": &EvalScan{Ctx: c, Expr: &tmql.Lit{V: value.SetOf(elems...)}},
		"nest": &NestIter{Ctx: c, In: &SliceScan{Rows: elems}, Attrs: []string{"none"}, Label: "g"},
	} {
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for {
			b, ok, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			sizes = append(sizes, len(b))
		}
		if fmt.Sprint(sizes) != fmt.Sprint([]int{DefaultBatchSize, DefaultBatchSize, 5}) {
			t.Errorf("%s: batch sizes %v", name, sizes)
		}
		it.Close()
	}
}
