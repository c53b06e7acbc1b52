package stats

import (
	"fmt"
	"math"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/storage"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Property tests for the approximate estimator: on datagen distributions the
// histogram/sketch figures must stay within bounded relative error of the
// exact statistics computed from the same data, and the documented edge cases
// (empty table, single-value column, all-distinct column) must behave.

// approxAndExact builds two catalogs over the same database: one forced onto
// the approximate path (threshold 0) and one exact (threshold large).
func approxAndExact(db *storage.DB) (approx, exact *Catalog) {
	approx = New(db)
	approx.SetExactThreshold(0)
	exact = New(db)
	exact.SetExactThreshold(1 << 30)
	return approx, exact
}

func relErr(est, ref float64) float64 {
	if ref == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-ref) / ref
}

func TestHistogramDistinctWithinBounds(t *testing.T) {
	_, db := datagen.XYZ(datagen.Spec{
		NX: 500, NY: 1500, NZ: 800, Keys: 40, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 11,
	})
	approx, exact := approxAndExact(db)
	for _, tc := range []struct{ table, attr string }{
		{"X", "b"}, {"Y", "b"}, {"Y", "d"}, {"Z", "d"}, {"Z", "c"},
	} {
		a := approx.Table(tc.table)
		e := exact.Table(tc.table)
		if !a.Approx {
			t.Fatalf("%s: approximate path not taken", tc.table)
		}
		if a.Approx && a.keys != nil {
			t.Fatalf("%s: approximate stats retained exact key sets", tc.table)
		}
		ad, ed := a.Distinct[tc.attr], e.Distinct[tc.attr]
		if ed == 0 {
			t.Fatalf("%s.%s: exact distinct is zero", tc.table, tc.attr)
		}
		// KMV at k=256 has ~6% standard error; allow generous slack.
		if err := relErr(float64(ad), float64(ed)); err > 0.35 {
			t.Errorf("%s.%s: sketch NDV %d vs exact %d (rel err %.2f)", tc.table, tc.attr, ad, ed, err)
		}
	}
}

func TestHistogramEqEstimatesWithinBounds(t *testing.T) {
	_, db := datagen.XYZ(datagen.Spec{
		NX: 600, NY: 1200, NZ: 0, Keys: 25, DanglingFrac: 0.2, SetAttrCard: 3, Seed: 13,
	})
	approx, _ := approxAndExact(db)
	tab, _ := db.Table("Y")
	freq := map[int64]int{}
	for _, r := range tab.Rows() {
		v, _ := r.Get("b")
		freq[v.AsInt()]++
	}
	h := approx.Table("Y").Histogram("b")
	if h == nil {
		t.Fatal("no histogram for Y.b")
	}
	// Aggregate bound: summing the estimated row counts over every true
	// distinct value must come back near the table cardinality, and the mean
	// per-value absolute error must be small relative to the mean frequency.
	card := float64(tab.Len())
	sum, absErr := 0.0, 0.0
	for v, n := range freq {
		est := h.EstimateEq(value.Int(v)) * card
		sum += est
		absErr += math.Abs(est - float64(n))
	}
	if err := relErr(sum, card); err > 0.05 {
		t.Errorf("Σ estimated rows %.0f vs card %.0f (rel err %.2f)", sum, card, err)
	}
	meanFreq := card / float64(len(freq))
	if absErr/float64(len(freq)) > meanFreq {
		t.Errorf("mean per-value error %.2f exceeds mean frequency %.2f",
			absErr/float64(len(freq)), meanFreq)
	}
	// A value far outside the populated range must estimate (near) zero.
	if est := h.EstimateEq(value.Int(1 << 40)); est != 0 {
		t.Errorf("out-of-range equality estimate = %v, want 0", est)
	}
}

func TestHistogramRangeEstimate(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("T", types.Tuple(
		types.F("k", types.Int),
		types.F("pad", types.Int),
	))
	var rows []value.Value
	for i := 0; i < 1000; i++ {
		rows = append(rows, value.TupleOf(
			value.F("k", value.Int(int64(i))),
			value.F("pad", value.Int(int64(i/7))),
		))
	}
	load(t, tab, rows...)
	c := New(db)
	c.SetExactThreshold(0)
	h := c.Table("T").Histogram("k")
	if h == nil {
		t.Fatal("no histogram")
	}
	for _, tc := range []struct {
		v    int64
		want float64
	}{{0, 0}, {250, 0.25}, {500, 0.5}, {900, 0.9}, {1000, 1.0}} {
		got := h.EstimateLess(value.Int(tc.v))
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("EstimateLess(%d) = %.3f, want ≈ %.2f", tc.v, got, tc.want)
		}
	}
}

func TestHistogramDanglingEstimateNearExact(t *testing.T) {
	for _, frac := range []float64{0.0, 0.25, 0.5} {
		_, db := datagen.XYZ(datagen.Spec{
			NX: 400, NY: 1200, NZ: 0, Keys: 30, DanglingFrac: frac, SetAttrCard: 3, Seed: 17,
		})
		approx, exact := approxAndExact(db)
		got := approx.DanglingFrac("X", "b", "Y", "d")
		want := exact.DanglingFrac("X", "b", "Y", "d")
		if math.Abs(got-want) > 0.15 {
			t.Errorf("frac=%.2f: histogram dangling %.3f vs exact %.3f", frac, got, want)
		}
	}
}

func TestHistogramEmptyTable(t *testing.T) {
	db := storage.NewDB()
	db.MustCreate("E", types.Tuple(types.F("k", types.Int)))
	c := New(db)
	c.SetExactThreshold(0)
	ts := c.Table("E")
	if ts.Card != 0 || ts.Histogram("k") != nil {
		t.Errorf("empty table stats: card=%d hist=%v", ts.Card, ts.Histogram("k"))
	}
	if sel := ts.Selectivity("k"); sel != 0.1 {
		t.Errorf("empty-table selectivity default = %v", sel)
	}
	if f := c.DanglingFrac("E", "k", "E", "k"); f != 0.5 {
		t.Errorf("empty-table dangling default = %v", f)
	}
}

func TestHistogramSingleValueColumn(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("S", types.Tuple(
		types.F("k", types.Int),
		types.F("u", types.Int),
	))
	var rows []value.Value
	for i := 0; i < 300; i++ {
		rows = append(rows, value.TupleOf(
			value.F("k", value.Int(42)),
			value.F("u", value.Int(int64(i))),
		))
	}
	load(t, tab, rows...)
	c := New(db)
	c.SetExactThreshold(0)
	ts := c.Table("S")
	if d := ts.Distinct["k"]; d != 1 {
		t.Errorf("single-value NDV = %d, want 1 (exact below sketch capacity)", d)
	}
	h := ts.Histogram("k")
	if got := h.EstimateEq(value.Int(42)); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("EstimateEq(the value) = %v, want 1", got)
	}
	if got := h.EstimateEq(value.Int(7)); got != 0 {
		t.Errorf("EstimateEq(absent) = %v, want 0", got)
	}
}

func TestHistogramAllDistinctColumn(t *testing.T) {
	const n = 2000
	db := storage.NewDB()
	tab := db.MustCreate("D", types.Tuple(types.F("k", types.String)))
	var rows []value.Value
	for i := 0; i < n; i++ {
		rows = append(rows, value.TupleOf(value.F("k", value.Str(fmt.Sprintf("v%06d", i)))))
	}
	load(t, tab, rows...)
	c := New(db)
	c.SetExactThreshold(0)
	ts := c.Table("D")
	if err := relErr(float64(ts.Distinct["k"]), n); err > 0.35 {
		t.Errorf("all-distinct NDV estimate %d vs %d (rel err %.2f)", ts.Distinct["k"], n, err)
	}
	h := ts.Histogram("k")
	if got := h.EstimateEq(value.Str("v000500")); relErr(got, 1.0/n) > 0.5 {
		t.Errorf("all-distinct EstimateEq = %v, want ≈ %v", got, 1.0/n)
	}
}

func TestDistinctSketchExactBelowCapacity(t *testing.T) {
	s := newDistinctSketch(sketchK)
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprintf("k%d", i%50))
	}
	if got := s.Estimate(); got != 50 {
		t.Errorf("below-capacity sketch must be exact: %d", got)
	}
}

// SetExactThreshold overrides the exact-statistics cardinality threshold
// (n <= 0 forces the approximate path for every table). It affects tables
// scanned after the call; estimator tests use it to compare the approximate
// path against exact ground truth on the same data.
func (c *Catalog) SetExactThreshold(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exactThreshold = n
}
