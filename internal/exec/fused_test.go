package exec

import (
	"runtime"
	"testing"

	"tmdb/internal/faultinject"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// fusedNestJoin is hashNestJoin on x.k = y.j grouping the whole right row
// under s, fused with test over x and s.
func fusedNestJoin(ctx *Ctx, l, r []value.Value, test string) *Join {
	j := hashNestJoin(ctx, l, r, "x.k", "y.j", nil)
	j.Test = pred(test)
	return j
}

// TestFusedNestJoinMatchesUnfused holds the groupjoin to the pipeline it
// replaces — the nest join, a filter on its group, and the projection back
// onto the left row's labels — for tests that read the left row and tests
// that do not, on the hash, sort-merge and nested-loop methods, at every split size of
// the left input. Left keys range over 13 and right keys over 7, so some
// left rows dangle and see an empty group.
func TestFusedNestJoinMatchesUnfused(t *testing.T) {
	l, r := genRows(300, 13, "k", "v"), genRows(120, 7, "j", "w")
	for _, test := range []string{"COUNT(s) >= 17", "COUNT(s) = 0", "x.v < COUNT(s) * 20", "EXISTS e IN s (e.w = x.v)"} {
		unfused := &Map{Ctx: NewCtx(nil), Var: "x", Out: pred("(k = x.k, v = x.v)"), In: &Filter{
			Ctx: NewCtx(nil), Var: "x", Pred: tmql.Subst(pred(test), "s", pred("x.s")),
			In: hashNestJoin(NewCtx(nil), l, r, "x.k", "y.j", nil),
		}}
		want := collect(t, unfused)
		nl := nlNestJoin(l, r, pred("x.k = y.j"))
		nl.Test = pred(test)
		if got := collect(t, nl); !value.Equal(got, want) {
			t.Errorf("%s: nested-loop groupjoin differs from the unfused pipeline:\nwant %s\ngot  %s", test, want, got)
		}
		for _, size := range splitSizes {
			for name, method := range map[string]JoinMethod{"hash": JoinHash, "sort-merge": JoinMerge} {
				j := fusedNestJoin(NewCtx(nil), nil, r, test)
				j.Method, j.L = method, &Split{In: &SliceScan{Rows: l}, N: size}
				if got := collect(t, j); !value.Equal(got, want) {
					t.Errorf("%s/size=%d: %s groupjoin differs from the unfused pipeline:\nwant %s\ngot  %s", test, size, name, want, got)
				}
			}
		}
	}
}

// TestFusedNestJoinBuildsOneGroupPerKey pins that a nest join whose group
// depends on its bucket alone builds each bucket's group once: n left rows
// over k keys build k groups, not n. Each group here holds 64 right rows, so
// one group per left row would allocate n·64·24 bytes (6 MiB) of group
// slots; one per key allocates 24 KiB. With and without a fused test, the
// rest is the left rows' output and the build (for sort-merge, the sorted
// runs).
func TestFusedNestJoinBuildsOneGroupPerKey(t *testing.T) {
	const n, k, nr = 4096, 16, 1024
	l, r := genRows(n, k, "k", "v"), genRows(nr, k, "j", "w")
	for _, c := range []struct {
		name, test string
		method     JoinMethod
		rows       int
	}{
		{"nest", "", JoinHash, n},
		// Every group holds nr/k = 64 rows: the rows with x.v < 64 fail.
		{"fused", "x.v >= COUNT(s)", JoinHash, n - nr/k},
		{"merge", "x.v >= COUNT(s)", JoinMerge, n - nr/k},
	} {
		name := c.name
		j := hashNestJoin(NewCtx(nil), l, r, "x.k", "y.j", nil)
		j.Method = c.method
		if c.test != "" {
			j.Test = pred(c.test)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := CollectBatches(j)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != c.rows {
			t.Fatalf("%s: got %d rows, want %d", name, got.Len(), c.rows)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
			t.Errorf("%s: %d left rows over %d keys allocated %d bytes: groups are built per row, not per key", name, n, k, alloc)
		}
	}
}

// TestFusedNestJoinCancellation cancels a groupjoin mid-probe: the per-row
// probe gate must observe the cancellation with groups already memoized,
// and a rerun with faults off must match the nested-loop groupjoin.
func TestFusedNestJoinCancellation(t *testing.T) {
	l, r := genRows(1000, 13, "k", "v"), genRows(500, 7, "j", "w")
	oracle := nlNestJoin(l, r, pred("x.k = y.j"))
	oracle.Test = pred("COUNT(s) >= 2")
	want := collect(t, oracle).String()
	cancelMidRun(t, faultinject.PointHashProbe, want, func(ctx *Ctx) BatchIterator {
		return fusedNestJoin(ctx, l, r, "COUNT(s) >= 2")
	})
}
