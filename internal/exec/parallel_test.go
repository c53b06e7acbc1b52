package exec

import (
	"fmt"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// genRows builds n tuples (<key> = i % keys, <val> = i) — enough rows to
// cross the minParallelRows inline threshold when n is large. Labels differ
// per side so inner-join concatenation has disjoint labels.
func genRows(n, keys int, key, val string) []value.Value {
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		out[i] = tup(key, i%keys, val, i)
	}
	return out
}

// hashDegrees straddles the exchange: degree 1 builds one table, 2 and up
// partition, 8 more partitions than the inputs of the small sizes have rows.
var hashDegrees = []int{1, 2, 3, 8}

// joinRElem is the right element type of genRows(…, "j", "w").
var joinRElem = types.Tuple(types.F("j", types.Int), types.F("w", types.Int))

// joinPred is the equi-predicate eq conjoined with residual, if any.
func joinPred(eq string, residual tmql.Expr) tmql.Expr {
	if residual == nil {
		return pred(eq)
	}
	return tmql.JoinAnd([]tmql.Expr{pred(eq), residual})
}

// hashJoin is the flat hash join of l and r on x.k = y.j at degree, its
// inputs scanned in batches of size rows (0 = default).
func hashJoin(ctx *Ctx, kind algebra.JoinKind, l, r []value.Value, residual tmql.Expr, degree, size int) *HashJoin {
	return &HashJoin{
		Ctx: ctx, Kind: kind, L: &BatchSliceScan{Rows: l, Size: size}, R: &BatchSliceScan{Rows: r, Size: size},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred("x.k")}, RKeys: []tmql.Expr{pred("y.j")},
		Residual: residual, RElem: joinRElem, Degree: degree, BatchSize: size,
	}
}

// nlJoin is hashJoin's reference: the nested-loop join on the whole
// predicate.
func nlJoin(kind algebra.JoinKind, l, r []value.Value, residual tmql.Expr) *NLJoin {
	return &NLJoin{
		Ctx: NewCtx(nil), Kind: kind, L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r},
		LVar: "x", RVar: "y", Pred: joinPred("x.k = y.j", residual), RElem: joinRElem,
	}
}

// TestHashJoinMatchesNL runs every flat join kind, with no residual and
// with compiled and generic residuals, at every degree, input size
// (straddling minParallelRows) and batch size, asserting the hash join's
// canonical result equals the nested-loop join's.
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
				for _, degree := range hashDegrees {
					for _, size := range batchSizes {
						got := collectBatches(t, hashJoin(NewCtx(nil), kind, l, r, residual, degree, size))
						if !value.Equal(got, want) {
							t.Errorf("%s/%s/n=%d/p=%d/size=%d: hash join differs from nested loops:\nwant %s\ngot  %s",
								kind, rname, n, degree, size, want, got)
						}
					}
				}
			}
		}
	}
}

// TestHashJoinStepsMatchAcrossDegrees pins the step accounting: every
// degree performs exactly the evaluations degree 1 does (keys once per row,
// residual once per candidate, through the same compiled or generic path),
// just sharded per worker. The generic keys and residual make the counts
// nonzero.
func TestHashJoinStepsMatchAcrossDegrees(t *testing.T) {
	l, r := genRows(400, 13, "k", "v"), genRows(300, 7, "j", "w")
	residual := pred("x.v <= y.w + 250")
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi} {
		for _, keys := range []string{"compiled", "generic"} {
			steps := func(degree int) int64 {
				ctx := NewCtx(nil)
				j := hashJoin(ctx, kind, l, r, residual, degree, 0)
				if keys == "generic" {
					j.LKeys, j.RKeys = []tmql.Expr{pred("x.k + 0")}, []tmql.Expr{pred("y.j + 0")}
				}
				collectBatches(t, j)
				return ctx.Ev.Steps
			}
			want := steps(1)
			if want == 0 {
				t.Fatalf("%s/%s: degree 1 reported zero eval steps", kind, keys)
			}
			for _, degree := range []int{2, 4} {
				if got := steps(degree); got != want {
					t.Errorf("%s/%s: degree 1 performed %d eval steps, degree %d %d", kind, keys, want, degree, got)
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

func (c *countingBatches) NextBatch() (*Batch, bool, error) {
	c.pulled++
	return c.BatchIterator.NextBatch()
}

// TestHashJoinDegreeOneStreams pins that degree 1 streams: Open builds the
// table without touching the left input, and each output batch is the probe
// of one left batch — the join is never materialized whole. Every left key
// has right partners, so the first left batch already produces output.
func TestHashJoinDegreeOneStreams(t *testing.T) {
	l, r := genRows(500, 7, "k", "v"), genRows(100, 7, "j", "w")
	joins := map[string]func(BatchIterator) BatchIterator{
		"flat": func(left BatchIterator) BatchIterator {
			j := hashJoin(NewCtx(nil), algebra.JoinInner, nil, r, nil, 1, 16)
			j.L = left
			return j
		},
		"nest": func(left BatchIterator) BatchIterator {
			j := hashNestJoin(NewCtx(nil), nil, r, "x.k", "y.j", nil, 1)
			j.L = left
			return j
		},
	}
	for name, join := range joins {
		left := &countingBatches{BatchIterator: &BatchSliceScan{Rows: l, Size: 16}}
		j := join(left)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		if left.pulled != 0 {
			t.Errorf("%s: Open pulled %d left batches, want 0", name, left.pulled)
		}
		b, ok, err := j.NextBatch()
		if err != nil || !ok || b.Len() == 0 {
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

// TestHashJoinThroughRowAdapter drains both hash operators the way row plans
// reach them — through BatchToRows — at degree 1 and partitioned, and
// compares with the nested-loop references.
func TestHashJoinThroughRowAdapter(t *testing.T) {
	l, r := genRows(500, 13, "k", "v"), genRows(250, 7, "j", "w")
	residual := pred("x.v <= y.w + 250")
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter} {
		want := collect(t, nlJoin(kind, l, r, residual))
		for _, degree := range []int{1, 4} {
			got := collect(t, &BatchToRows{In: hashJoin(NewCtx(nil), kind, l, r, residual, degree, 64)})
			if !value.Equal(got, want) {
				t.Errorf("%s/p=%d: row-drained hash join differs from nested loops:\nwant %s\ngot  %s", kind, degree, want, got)
			}
		}
	}
	want := collect(t, &NLNestJoin{
		Ctx: NewCtx(nil), L: &SliceScan{Rows: l}, R: &SliceScan{Rows: r}, LVar: "x", RVar: "y",
		Pred: joinPred("x.k = y.j", residual), Fn: pred("y"), Label: "s",
	})
	for _, degree := range []int{1, 4} {
		got := collect(t, &BatchToRows{In: hashNestJoin(NewCtx(nil), l, r, "x.k", "y.j", residual, degree)})
		if !value.Equal(got, want) {
			t.Errorf("nest/p=%d: row-drained hash nest join differs from nested loops:\nwant %s\ngot  %s", degree, want, got)
		}
	}
}

// hashNestJoin is the hash nest join of l and r on lk = rk grouping y under
// s, at degree.
func hashNestJoin(ctx *Ctx, l, r []value.Value, lk, rk string, residual tmql.Expr, degree int) *HashNestJoin {
	return &HashNestJoin{
		Ctx: ctx, L: &BatchSliceScan{Rows: l}, R: &BatchSliceScan{Rows: r},
		LVar: "x", RVar: "y", LKeys: []tmql.Expr{pred(lk)}, RKeys: []tmql.Expr{pred(rk)},
		Residual: residual, Fn: pred("y"), Label: "s", Degree: degree,
	}
}

// TestHashNestJoinMatchesNL compares the hash nest join at every degree
// against the nested-loop nest join on the Table 1 example and on generated
// data of sizes straddling minParallelRows, with and without a residual, and
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
	// which left row a degree probes first.
	sevens := []value.Value{tup("a", 7, "b", 1), tup("a", 7, "b", 3)}
	sets = append(sets, dataset{"table1/fn=field-of-non-tuple", x, sevens, "x.d", "y.b", nil, "y.a.z"})
	for _, ds := range sets {
		fn := pred("y")
		if ds.fn != "" {
			fn = pred(ds.fn)
		}
		want, wantErr := Collect(&NLNestJoin{
			Ctx: NewCtx(nil), L: &SliceScan{Rows: ds.l}, R: &SliceScan{Rows: ds.r}, LVar: "x", RVar: "y",
			Pred: joinPred(ds.lk+" = "+ds.rk, ds.resid), Fn: fn, Label: "s",
		})
		for _, degree := range hashDegrees {
			j := hashNestJoin(NewCtx(nil), ds.l, ds.r, ds.lk, ds.rk, ds.resid, degree)
			j.Fn = fn
			got, err := CollectBatches(j)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || got.String() != want.String() {
				t.Errorf("%s/p=%d: hash nest join differs from nested loops:\nwant %s (err %v)\ngot  %s (err %v)",
					ds.name, degree, want, wantErr, got, err)
			}
		}
	}
}

// TestHashJoinErrors pins the failure modes at degree 1 and partitioned:
// missing keys are rejected, and an evaluation error — inside the workers
// when partitioned — surfaces out of Collect.
func TestHashJoinErrors(t *testing.T) {
	l, r := genRows(300, 5, "k", "v"), genRows(300, 5, "j", "w")
	for _, degree := range []int{1, 4} {
		bad := hashJoin(NewCtx(nil), algebra.JoinInner, l, r, nil, degree, 0)
		bad.LKeys, bad.RKeys = nil, nil
		if err := bad.Open(); err == nil {
			t.Errorf("p=%d: empty key lists should be rejected", degree)
		}
		// A residual referencing a missing field fails on the first
		// candidate; the error must propagate out of Collect.
		evalErr := hashJoin(NewCtx(nil), algebra.JoinInner, l, r, pred("x.missing = y.w"), degree, 0)
		if _, err := CollectBatches(evalErr); err == nil {
			t.Errorf("p=%d: evaluation error did not propagate", degree)
		}
	}
}

// TestPartitionInputRouting checks the exchange invariant directly: equal
// keys land in the same partition, every row lands somewhere, and the row
// total is preserved at any producer count. It also pins that fragments route
// positions, not copies: every fragment of one fed batch aliases that batch's
// single owned copy of the rows, which is not the source's slice.
func TestPartitionInputRouting(t *testing.T) {
	rows := genRows(1000, 23, "k", "v")
	const size = 100
	for _, nparts := range []int{2, 5, 8} {
		ctx := NewCtx(nil)
		s := NewScheduler(SchedConfig{Workers: nparts})
		// A generic key, so the workers' evaluation steps show up in ctx.
		ps, err := partitionInput(ctx, s, &BatchSliceScan{Rows: rows, Size: size}, []tmql.Expr{pred("x.k + 0")}, "x", nparts)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Ev.Steps <= 0 {
			t.Error("partitioning reported no eval steps")
		}
		total := 0
		keyPart := map[string]int{}
		copies := map[*value.Value]int{} // owned copy → its row count
		for p := 0; p < nparts; p++ {
			for _, fr := range ps.parts[p] {
				if len(fr.Rows) > size {
					t.Fatalf("fragment rows span %d rows, more than one fed batch", len(fr.Rows))
				}
				for j := range rows {
					if &rows[j] == &fr.Rows[0] {
						t.Fatalf("fragment rows alias the source slice at row %d, not the feed copy", j)
					}
				}
				copies[&fr.Rows[0]] = len(fr.Rows)
				total += fr.Len()
				for i := 0; i < fr.Len(); i++ {
					key := fr.Key(i)
					if prev, seen := keyPart[string(key)]; seen && prev != p {
						t.Fatalf("key %x routed to partitions %d and %d", key, prev, p)
					}
					keyPart[string(key)] = p
					if got := hashKeyBytes(key) % uint64(nparts); got != uint64(p) {
						t.Fatalf("row %s with key hash partition %d found in partition %d", fr.row(i), got, p)
					}
				}
			}
		}
		if total != len(rows) {
			t.Errorf("nparts=%d: %d rows in, %d rows across partitions", nparts, len(rows), total)
		}
		copied := 0
		for _, n := range copies {
			copied += n
		}
		if len(copies) != len(rows)/size || copied != len(rows) {
			t.Errorf("nparts=%d: fragments alias %d row slices holding %d rows, want one copy per fed batch (%d) holding %d",
				nparts, len(copies), copied, len(rows)/size, len(rows))
		}
		if len(keyPart) != 23 {
			t.Errorf("nparts=%d: expected 23 distinct keys, saw %d", nparts, len(keyPart))
		}
		// Routing one fed batch hands every fragment that batch's rows.
		acc := make([][]seqFragment, nparts)
		if _, err := routeBatch(newKeyEncoder(ctx, []tmql.Expr{pred("x.k")}, "x"), seqRows{rows: rows}, nparts, acc, nil); err != nil {
			t.Fatal(err)
		}
		for p := range acc {
			for _, sf := range acc[p] {
				if &sf.Rows[0] != &rows[0] || len(sf.Rows) != len(rows) {
					t.Fatalf("nparts=%d: partition %d's fragment copies the fed rows instead of selecting them", nparts, p)
				}
			}
		}
	}
}

// TestBuildTable pins the build kernel's layout: each key's bucket is a
// contiguous run of one flat row slice holding exactly the build rows, in
// input order within the key, whether the table is built from plain batches
// or from the exchange's position-selecting fragments. Its allocations do
// not grow with the rows per key.
func TestBuildTable(t *testing.T) {
	ctx := NewCtx(nil)
	enc := newKeyEncoder(ctx, []tmql.Expr{pred("x.k")}, "x")
	// batches cuts rows into owned, key-encoded batches of 7 rows.
	batches := func(rows []value.Value) []Batch {
		var bs []Batch
		for lo := 0; lo < len(rows); lo += 7 {
			b := Batch{Rows: rows[lo:min(lo+7, len(rows))]}
			if err := b.encodeKeys(enc); err != nil {
				t.Fatal(err)
			}
			bs = append(bs, b)
		}
		return bs
	}
	rows := genRows(500, 13, "k", "v")
	acc := make([][]seqFragment, 3)
	if _, err := routeBatch(enc, seqRows{rows: rows}, 3, acc, nil); err != nil {
		t.Fatal(err)
	}
	var fragments []Batch
	for _, sfs := range acc {
		for _, sf := range sfs {
			fragments = append(fragments, sf.Batch)
		}
	}
	for name, in := range map[string][]Batch{"batches": batches(rows), "fragments": fragments} {
		table, err := buildTable(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.rows) != len(rows) {
			t.Fatalf("%s: table holds %d rows, built from %d", name, len(table.rows), len(rows))
		}
		seen := 0
		for k := 0; k < 13; k++ {
			key := value.AppendKey(nil, value.Int(int64(k)))
			bucket := table.bucket(key)
			s := table.idx[string(key)]
			if len(bucket) == 0 || &bucket[0] != &table.rows[table.start[s]] {
				t.Fatalf("%s: key %d's bucket is not a run of the table's row slice", name, k)
			}
			for i, r := range bucket {
				if r.MustGet("k").AsInt() != int64(k) || (i > 0 && r.MustGet("v").AsInt() <= bucket[i-1].MustGet("v").AsInt()) {
					t.Fatalf("%s: key %d's bucket is not its rows in input order: %v", name, k, bucket)
				}
			}
			seen += len(bucket)
		}
		if seen != len(rows) || table.bucket([]byte("absent")) != nil {
			t.Errorf("%s: buckets hold %d of %d rows, or an absent key has a bucket", name, seen, len(rows))
		}
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
