package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tmdb/internal/value"
)

// TestCollectModes holds the collector to set semantics in each of its three
// modes, with the rows cut into batches every way Split cuts them: the result
// is strictly ascending, equals what sorting and deduplicating every row
// gives (value.SetOf, the collector before it deduplicated on arrival), and
// the governor is charged the rows the result keeps. Repeating rows mix
// values that are equal under value.Compare but written differently — 1 and
// 1.0, 0.0 and -0.0, tuples and sets holding them — and each class
// collapses to one element.
func TestCollectModes(t *testing.T) {
	negZero := value.Float(math.Copysign(0, -1))
	classes := [][]value.Value{
		{value.Int(1), value.Float(1)},
		{value.Float(0), negZero, value.Int(0)},
		{tup("a", 1, "b", value.SetOf(value.Int(2), value.Float(3))), tup("b", value.SetOf(value.Float(3), value.Int(2)), "a", value.Float(1))},
		{value.SetOf(value.Int(1), value.Int(2), value.Int(3)), value.SetOf(value.Float(3), value.Int(2), value.Float(1))},
		{value.SetOf(tup("x", 0), tup("x", 1)), value.SetOf(tup("x", value.Float(1)), tup("x", negZero))},
		{tup("s", value.Str("a"), "z", negZero), tup("z", 0, "s", value.Str("a"))},
	}
	// Enough distinct classes to grow the index several times.
	for i := int64(2); i < 300; i++ {
		classes = append(classes, []value.Value{value.Int(i), value.Float(float64(i)), value.Int(i)})
	}
	rng := rand.New(rand.NewSource(47))
	var repeating, distinct []value.Value
	for _, c := range classes {
		repeating = append(repeating, c...)
		distinct = append(distinct, c[rng.Intn(len(c))])
	}
	rng.Shuffle(len(repeating), func(i, j int) { repeating[i], repeating[j] = repeating[j], repeating[i] })
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	want := value.SetOf(repeating...)
	if want.Len() != len(classes) {
		t.Fatalf("the classes are not distinct: %d elements for %d classes", want.Len(), len(classes))
	}
	for _, tc := range []struct {
		mode Rows
		rows []value.Value
	}{
		{AnyRows, repeating},
		{AnyRows, distinct},
		{AnyRows, want.Elems()},
		{DistinctRows, distinct},
		{DistinctRows, want.Elems()},
		{CanonicalRows, want.Elems()},
	} {
		if old := value.SetOf(tc.rows...); !value.Equal(old, want) {
			t.Fatalf("mode %d: the input's set differs from the classes'", tc.mode)
		}
		for _, n := range append(splitSizes, DefaultBatchSize) {
			t.Run(fmt.Sprintf("mode=%d/rows=%d/split=%d", tc.mode, len(tc.rows), n), func(t *testing.T) {
				gov := NewGovernor(context.Background(), Limits{MaxRows: 1 << 40})
				got, err := CollectBatchesGoverned(gov, &Split{In: &SliceScan{Rows: tc.rows}, N: n}, tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				es := got.Elems()
				for i := 1; i < len(es); i++ {
					if !value.Less(es[i-1], es[i]) {
						t.Fatalf("element %d %s does not follow %s", i, es[i], es[i-1])
					}
				}
				if !value.Equal(got, want) {
					t.Fatalf("%d elements, want %d", got.Len(), want.Len())
				}
				if gov.Rows() != int64(want.Len()) {
					t.Errorf("charged %d rows for %d kept", gov.Rows(), want.Len())
				}
			})
		}
	}
	// The budget holds the rows kept: exactly enough passes, one fewer fails.
	for _, limit := range []int64{int64(want.Len()), int64(want.Len()) - 1} {
		gov := NewGovernor(context.Background(), Limits{MaxRows: limit})
		_, err := CollectBatchesGoverned(gov, &Split{In: &SliceScan{Rows: repeating}, N: 7}, AnyRows)
		if fails := err != nil; fails != (limit < int64(want.Len())) {
			t.Errorf("MaxRows %d over %d distinct rows: err %v", limit, want.Len(), err)
		}
	}
}
