package exec

import (
	"fmt"
	"runtime"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// genRows builds n tuples (<key> = i % keys, <val> = i). Labels differ per
// side so inner-join concatenation has disjoint labels.
func genRows(n, keys int, key, val string) []value.Value {
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		out[i] = tup(key, i%keys, val, i)
	}
	return out
}

// joinRElem is the right element type of genRows(…, "j", "w").
var joinRElem = types.Tuple(types.F("j", types.Int), types.F("w", types.Int))

// joinPred is the equi-predicate eq conjoined with residual, if any.
func joinPred(eq string, residual tmql.Expr) tmql.Expr {
	if residual == nil {
		return pred(eq)
	}
	return tmql.JoinAnd([]tmql.Expr{pred(eq), residual})
}

// hashJoin is the flat hash join of l and r on x.k = y.j, its inputs
// scanned in batches of size rows (0 = all rows in one batch).
func hashJoin(ctx *Ctx, kind algebra.JoinKind, l, r []value.Value, residual tmql.Expr, size int) *Join {
	return &Join{
		Ctx: ctx, Method: JoinHash, Kind: kind, L: &SliceScan{Rows: l, Size: size}, R: &SliceScan{Rows: r, Size: size},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
		Residual: residual, RElem: joinRElem,
	}
}

// nlJoin is hashJoin's reference: the nested-loop join on the whole
// predicate.
func nlJoin(kind algebra.JoinKind, l, r []value.Value, residual tmql.Expr) *Join {
	return &Join{
		Ctx: NewCtx(nil), Method: JoinNL, Kind: kind, L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
		LVar: "x", RVar: "y", Residual: joinPred("x.k = y.j", residual), RElem: joinRElem,
	}
}

// nlNestJoin is the nested-loop nest join of l and r on the whole predicate,
// grouping y under s.
func nlNestJoin(l, r []value.Value, pred tmql.Expr) *Join {
	return &Join{
		Ctx: NewCtx(nil), Method: JoinNL, L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
		LVar: "x", RVar: "y", Residual: pred, Fn: tmql.MustParse("y"), Label: "s",
	}
}

// TestHashJoinMatchesNL runs every flat join kind, with no residual and
// with compiled and generic residuals, at every input size and split size,
// asserting the hash join's canonical result equals the nested-loop join's.
func TestHashJoinMatchesNL(t *testing.T) {
	residuals := map[string]tmql.Expr{
		"nil": nil,
		// In the compiled subset: field-vs-field comparison.
		"compiled": pred("x.v <= y.w"),
		// Arithmetic forces generic residual evaluation.
		"generic": pred("x.v <= y.w + 250"),
	}
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		for rname, residual := range residuals {
			for _, n := range []int{0, 7, 500} {
				// Dangling left rows: left keys range over 13, right over 7.
				l, r := genRows(n, 13, "k", "v"), genRows(n/2, 7, "j", "w")
				want := collect(t, nlJoin(kind, l, r, residual))
				for _, size := range splitSizes {
					got := collect(t, hashJoin(NewCtx(nil), kind, l, r, residual, size))
					if !value.Equal(got, want) {
						t.Errorf("%s/%s/n=%d/size=%d: hash join differs from nested loops:\nwant %s\ngot  %s",
							kind, rname, n, size, want, got)
					}
				}
			}
		}
	}
}

// countingBatches counts the batches pulled from its input.
type countingBatches struct {
	BatchIterator
	pulled int
}

func (c *countingBatches) NextBatch() ([]value.Value, bool, error) {
	c.pulled++
	return c.BatchIterator.NextBatch()
}

// TestHashJoinStreams pins that hash joins stream: Open builds the
// table without touching the left input, and each output batch is the probe
// of one left batch — the join is never materialized whole. Every left key
// has right partners, so the first left batch already produces output.
func TestHashJoinStreams(t *testing.T) {
	l, r := genRows(500, 7, "k", "v"), genRows(100, 7, "j", "w")
	joins := map[string]func(BatchIterator) BatchIterator{
		"flat": func(left BatchIterator) BatchIterator {
			j := hashJoin(NewCtx(nil), algebra.JoinInner, nil, r, nil, 16)
			j.L = left
			return j
		},
		"nest": func(left BatchIterator) BatchIterator {
			j := hashNestJoin(NewCtx(nil), nil, r, "x.k", "y.j", nil)
			j.L = left
			return j
		},
	}
	for name, join := range joins {
		left := &countingBatches{BatchIterator: &SliceScan{Rows: l, Size: 16}}
		j := join(left)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		if left.pulled != 0 {
			t.Errorf("%s: Open pulled %d left batches, want 0", name, left.pulled)
		}
		b, ok, err := j.NextBatch()
		if err != nil || !ok || len(b) == 0 {
			t.Fatalf("%s: first NextBatch = %v, %v, want output", name, ok, err)
		}
		if left.pulled != 1 {
			t.Errorf("%s: first output batch pulled %d left batches, want 1", name, left.pulled)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// hashNestJoin is the hash nest join of l and r on lk = rk grouping y under
// s.
func hashNestJoin(ctx *Ctx, l, r []value.Value, lk, rk string, residual tmql.Expr) *Join {
	return &Join{
		Ctx: ctx, Method: JoinHash, L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred(lk)}, RKeys: []tmql.Expr{pred(rk)},
		Residual: residual, Fn: pred("y"), Label: "s",
	}
}

// TestHashNestJoinMatchesNL compares the hash nest join against the
// nested-loop nest join on the Table 1 example and on generated data of
// several sizes, with and without a residual, and
// with nest-join functions inside the compiled subset (y.w), outside it
// (evaluated generically) and failing (a field of a non-tuple): results must
// render byte-identically and errors must carry the evaluator's exact text.
func TestHashNestJoinMatchesNL(t *testing.T) {
	type dataset struct {
		name   string
		l, r   []value.Value
		lk, rk string
		resid  tmql.Expr
		fn     string // the nest-join function; "" is the identity y
	}
	x, y := xyRows()
	sets := []dataset{{"table1", x, y, "x.d", "y.b", nil, ""}}
	for _, n := range []int{0, 7, 500} {
		l, r := genRows(n, 17, "k", "v"), genRows(n*3/2, 11, "j", "w")
		sets = append(sets,
			dataset{fmt.Sprintf("n=%d", n), l, r, "x.k", "y.j", nil, ""},
			dataset{fmt.Sprintf("n=%d/resid", n), l, r, "x.k", "y.j", pred("x.v <= y.w + 250"), ""},
			dataset{fmt.Sprintf("n=%d/fn=compiled", n), l, r, "x.k", "y.j", nil, "y.w"},
			dataset{fmt.Sprintf("n=%d/fn=generic", n), l, r, "x.k", "y.j", pred("x.v <= y.w + 250"), "{y.w} UNION {1}"})
	}
	// Every matching y.a is 7, so the failing pair's text does not depend on
	// which left row is probed first.
	sevens := []value.Value{tup("a", 7, "b", 1), tup("a", 7, "b", 3)}
	sets = append(sets, dataset{"table1/fn=field-of-non-tuple", x, sevens, "x.d", "y.b", nil, "y.a.z"})
	for _, ds := range sets {
		fn := pred("y")
		if ds.fn != "" {
			fn = pred(ds.fn)
		}
		ref := nlNestJoin(ds.l, ds.r, joinPred(ds.lk+" = "+ds.rk, ds.resid))
		ref.Fn = fn
		want, wantErr := CollectBatches(ref)
		j := hashNestJoin(NewCtx(nil), ds.l, ds.r, ds.lk, ds.rk, ds.resid)
		j.Fn = fn
		got, err := CollectBatches(j)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || got.String() != want.String() {
			t.Errorf("%s: hash nest join differs from nested loops:\nwant %s (err %v)\ngot  %s (err %v)",
				ds.name, want, wantErr, got, err)
		}
	}
}

// TestHashJoinErrors pins the failure modes: missing keys are rejected, and
// an evaluation error surfaces out of Collect.
func TestHashJoinErrors(t *testing.T) {
	l, r := genRows(300, 5, "k", "v"), genRows(300, 5, "j", "w")
	bad := hashJoin(NewCtx(nil), algebra.JoinInner, l, r, nil, 0)
	bad.LKeys, bad.RKeys = nil, nil
	if err := bad.Open(); err == nil {
		t.Error("empty key lists should be rejected")
	}
	// A residual referencing a missing field fails on the first candidate;
	// the error must propagate out of Collect.
	evalErr := hashJoin(NewCtx(nil), algebra.JoinInner, l, r, pred("x.missing = y.w"), 0)
	if _, err := CollectBatches(evalErr); err == nil {
		t.Error("evaluation error did not propagate")
	}
}

// TestBuildTable pins the build kernel's layout: each key's bucket is a
// contiguous run of one flat row slice holding exactly the build rows, in
// input order within the key. Its allocations do not grow with the rows per
// key.
func TestBuildTable(t *testing.T) {
	ctx := NewCtx(nil)
	enc := newKeyEncoder(ctx, []tmql.Expr{pred("x.k")}, "x")
	// batches drains rows, cut into batches of 7 rows, into a keyed run.
	batches := func(rows []value.Value) keyedRun {
		run, err := drainKeyed(&SliceScan{Rows: rows, Size: 7}, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	rows := genRows(500, 13, "k", "v")
	table, err := buildTable(ctx, batches(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(table.rows) != len(rows) {
		t.Fatalf("table holds %d rows, built from %d", len(table.rows), len(rows))
	}
	seen := 0
	for k := 0; k < 13; k++ {
		key := value.AppendKey(nil, value.Int(int64(k)))
		bucket, _ := table.bucket(key)
		s := table.keys.find(key)
		if len(bucket) == 0 || s < 0 || &bucket[0] != &table.rows[table.start[s]] {
			t.Fatalf("key %d's bucket is not a run of the table's row slice", k)
		}
		for i, r := range bucket {
			if r.MustGet("k").AsInt() != int64(k) || (i > 0 && r.MustGet("v").AsInt() <= bucket[i-1].MustGet("v").AsInt()) {
				t.Fatalf("key %d's bucket is not its rows in input order: %v", k, bucket)
			}
		}
		seen += len(bucket)
	}
	if seen != len(rows) || func() bool { b, _ := table.bucket([]byte("absent")); return b != nil }() {
		t.Errorf("buckets hold %d of %d rows, or an absent key has a bucket", seen, len(rows))
	}
	allocs := func(perKey int) float64 {
		in := batches(genRows(16*perKey, 16, "k", "v"))
		return testing.AllocsPerRun(20, func() {
			if _, err := buildTable(ctx, in); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); many > one {
		t.Errorf("build allocations grow with rows per key: %v at 1 row per key, %v at 64", one, many)
	}
}

// TestNLNestJoinGroupsSizedByMatches pins that a nested-loop nest join's
// groups grow with their matches, not with the right input: every left row's
// bucket is the whole right side, and a group builder sized by it would keep
// |R| slots alive in each output tuple (|L|·|R|·24 bytes here, 25 MiB).
func TestNLNestJoinGroupsSizedByMatches(t *testing.T) {
	const nl, nr = 128, 8192
	l, r := genRows(nl, nr, "k", "v"), genRows(nr, nr, "j", "w")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := CollectBatches(nlNestJoin(l, r, pred("x.k = y.j")))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != nl {
		t.Fatalf("got %d groups, want %d", got.Len(), nl)
	}
	// Draining the right side costs nr·24 bytes; everything else is the
	// nl one-element groups and their tuples.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
		t.Errorf("NL nest join allocated %d bytes for %d one-element groups over %d right rows", alloc, nl, nr)
	}
}
