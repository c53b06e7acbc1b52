package exec

import (
	"context"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/storage"
	"tmdb/internal/value"
)

// TestScanRangeCollectsCanonical narrows a scan of a table several chunks
// long to leading-label ranges under the filter of the matching predicate,
// and collects the filter canonically: the result must equal the full scan's
// collected through a sort, the narrowed scan must emit its rows strictly
// ascending, and every collector mode must charge the governor the same rows.
func TestScanRangeCollectsCanonical(t *testing.T) {
	_, db := datagen.XYZ(datagen.Spec{NX: 10, NY: 3000, NZ: 10, Keys: 40, SetAttrCard: 300, Seed: 5})
	at := func(a int64, strict bool) storage.Bound {
		return storage.Bound{V: value.Int(a), Set: true, Strict: strict}
	}
	cases := []struct {
		pred string
		rng  storage.KeyRange
	}{
		{"y.a = 200", storage.KeyRange{Lo: at(200, false), Hi: at(200, false)}},
		{"y.a < 40", storage.KeyRange{Hi: at(40, true)}},
		{"100 <= y.a", storage.KeyRange{Lo: at(100, false)}},
		{"y.a > 250 AND y.a <= 420 AND y.b > 3", storage.KeyRange{Lo: at(250, true), Hi: at(420, false)}},
		{"y.a >= 900", storage.KeyRange{Lo: at(900, false)}},
		{"y.a > 5 AND y.a < 5", storage.KeyRange{Lo: at(5, true), Hi: at(5, true)}},
	}
	for _, tc := range cases {
		scan := func(ctx *Ctx, rng storage.KeyRange) BatchIterator {
			return &Filter{Ctx: ctx, In: &TableScan{Ctx: ctx, Table: "Y", Range: rng}, Var: "y", Pred: pred(tc.pred)}
		}
		want := collect(t, scan(NewCtx(db), storage.KeyRange{}))

		rows, err := drainRows(&TableScan{Ctx: NewCtx(db), Table: "Y", Range: tc.rng})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rows); i++ {
			if !value.Less(rows[i-1], rows[i]) {
				t.Fatalf("%s: the narrowed scan emits %s after %s", tc.pred, rows[i], rows[i-1])
			}
		}
		if len(rows) < want.Len() {
			t.Fatalf("%s: the narrowed scan reads %d rows, the filter keeps %d", tc.pred, len(rows), want.Len())
		}

		var charged [3]int64
		for k, mode := range []Rows{CanonicalRows, DistinctRows, AnyRows} {
			gov := NewGovernor(context.Background(), Limits{MaxRows: 1 << 40})
			got, err := CollectBatchesGoverned(gov, scan(NewCtxGoverned(db, gov), tc.rng), mode)
			if err != nil {
				t.Fatal(err)
			}
			if value.Key(got) != value.Key(want) {
				t.Fatalf("%s (mode %d): %d rows, the full scan %d", tc.pred, mode, got.Len(), want.Len())
			}
			charged[k] = gov.Rows()
		}
		if charged[0] != charged[1] || charged[0] != charged[2] || charged[0] != int64(want.Len()) {
			t.Fatalf("%s: charged %v rows collected canonically, sorted and deduplicated, for %d", tc.pred, charged, want.Len())
		}
	}
}
