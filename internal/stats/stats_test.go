package stats

import (
	"math"
	"reflect"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/storage"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

func xyzDB(t *testing.T, spec datagen.Spec) *storage.DB {
	t.Helper()
	_, db := datagen.XYZ(spec)
	return db
}

func TestAnalyzeCoversAllTables(t *testing.T) {
	spec := datagen.Spec{NX: 50, NY: 150, NZ: 100, Keys: 10, DanglingFrac: 0.2, SetAttrCard: 3, Seed: 2}
	c := Analyze(xyzDB(t, spec))
	names := c.Names()
	if len(names) != 3 || names[0] != "X" || names[1] != "Y" || names[2] != "Z" {
		t.Fatalf("Names() = %v", names)
	}
	for _, n := range names {
		if c.Table(n).Card == 0 {
			t.Errorf("table %s: zero cardinality", n)
		}
	}
}

func TestTableStatsFigures(t *testing.T) {
	spec := datagen.Spec{NX: 60, NY: 200, NZ: 0, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 4, Seed: 5}
	db := xyzDB(t, spec)
	c := New(db)
	x := c.Table("X")
	tab, _ := db.Table("X")
	if x.Card != tab.Len() {
		t.Errorf("Card = %d, table has %d rows", x.Card, tab.Len())
	}
	// b draws from Keys matched values plus one negative value per dangling
	// row; NDV must be well above Keys and at most Card.
	if x.Distinct["b"] <= spec.Keys/2 || x.Distinct["b"] > x.Card {
		t.Errorf("Distinct[b] = %d (keys=%d, card=%d)", x.Distinct["b"], spec.Keys, x.Card)
	}
	if avg, ok := x.AvgSetLen["a"]; !ok || avg <= 0 || avg > float64(spec.SetAttrCard) {
		t.Errorf("AvgSetLen[a] = %v", x.AvgSetLen["a"])
	}
	if _, ok := x.AvgSetLen["b"]; ok {
		t.Error("scalar attribute b must have no AvgSetLen entry")
	}
}

func TestDanglingFracMatchesSpec(t *testing.T) {
	spec := datagen.Spec{NX: 200, NY: 600, NZ: 0, Keys: 15, DanglingFrac: 0.3, SetAttrCard: 3, Seed: 7}
	c := New(xyzDB(t, spec))
	got := c.DanglingFrac("X", "b", "Y", "d")
	// The generator gives dangling X tuples negative keys; a matched X tuple
	// may still dangle if its key happens to miss Y's sample, so the scanned
	// figure is ≥ the spec within slack.
	if got < spec.DanglingFrac-0.05 || got > spec.DanglingFrac+0.3 {
		t.Errorf("DanglingFrac = %v, spec %v", got, spec.DanglingFrac)
	}
	// Cached second call returns the identical figure.
	if again := c.DanglingFrac("X", "b", "Y", "d"); again != got {
		t.Errorf("cache miss: %v vs %v", again, got)
	}
}

func TestDanglingFracDefaults(t *testing.T) {
	c := New(storage.NewDB())
	if f := c.DanglingFrac("NOPE", "a", "ALSO", "b"); f != 0.5 {
		t.Errorf("unknown tables should default to 0.5, got %v", f)
	}
	if f := New(nil).DanglingFrac("X", "b", "Y", "d"); f != 0.5 {
		t.Errorf("nil db should default to 0.5, got %v", f)
	}
}

func TestFromXYZSpecAgreesWithAnalyze(t *testing.T) {
	spec := datagen.Spec{NX: 120, NY: 360, NZ: 240, Keys: 12, DanglingFrac: 0.25, SetAttrCard: 4, Seed: 9}
	predicted := FromXYZSpec(spec)
	scanned := Analyze(xyzDB(t, spec))
	for _, name := range []string{"X", "Y", "Z"} {
		p, s := predicted.Table(name), scanned.Table(name)
		// Load's set semantics drops duplicate rows; the Z prediction models
		// that explicitly, X and Y approximately (set-valued attributes make
		// collisions rarer but not impossible).
		if math.Abs(float64(p.Card-s.Card)) > 0.2*float64(p.Card) {
			t.Errorf("%s: predicted card %d, scanned %d", name, p.Card, s.Card)
		}
	}
	pd := predicted.DanglingFrac("X", "b", "Y", "d")
	sd := scanned.DanglingFrac("X", "b", "Y", "d")
	if math.Abs(pd-sd) > 0.3 {
		t.Errorf("dangling: predicted %v, scanned %v", pd, sd)
	}
	// Key NDV prediction within a factor of 2 of the scan.
	pk, sk := predicted.Table("X").Distinct["b"], scanned.Table("X").Distinct["b"]
	if sk == 0 || pk < sk/2 || pk > 2*sk {
		t.Errorf("Distinct[X.b]: predicted %d, scanned %d", pk, sk)
	}
}

func TestSelectivity(t *testing.T) {
	ts := &TableStats{Distinct: map[string]int{"a": 20}}
	if s := ts.Selectivity("a"); s != 0.05 {
		t.Errorf("Selectivity(a) = %v", s)
	}
	if s := ts.Selectivity("nope"); s != 0.1 {
		t.Errorf("unknown attribute should default to 0.1, got %v", s)
	}
}

func TestUnknownTableZeroStats(t *testing.T) {
	c := New(storage.NewDB())
	if got := c.Table("GHOST").Card; got != 0 {
		t.Errorf("unknown table Card = %d", got)
	}
}

// load replaces tab's rows with rows, failing the test on a type error.
func load(t testing.TB, tab *storage.Table, rows ...value.Value) {
	t.Helper()
	if err := tab.Load(rows); err != nil {
		t.Fatal(err)
	}
}

func TestExactFigures(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("T", types.Tuple(
		types.F("k", types.Int),
		types.F("s", types.SetOf(types.Int)),
	))
	load(t, tab, value.TupleOf(
		value.F("k", value.Int(1)),
		value.F("s", value.SetOf(value.Int(1), value.Int(2))),
	), value.TupleOf(
		value.F("k", value.Int(1)),
		value.F("s", value.SetOf(value.Int(3))),
	), value.TupleOf(
		value.F("k", value.Int(2)),
		value.F("s", value.EmptySet),
	))
	st := New(db).Table("T")
	if st.Card != 3 {
		t.Errorf("Card = %d", st.Card)
	}
	if st.Distinct["k"] != 2 {
		t.Errorf("Distinct[k] = %d", st.Distinct["k"])
	}
	if got := st.AvgSetLen["s"]; got != 1.0 {
		t.Errorf("AvgSetLen[s] = %v", got)
	}
	if sel := st.Selectivity("k"); sel != 0.5 {
		t.Errorf("Selectivity(k) = %v", sel)
	}
}

func TestNonTupleRowsOnlyCard(t *testing.T) {
	db := storage.NewDB()
	tab := db.MustCreate("NUMS", types.Int)
	load(t, tab, value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4))
	ts := New(db).Table("NUMS")
	if ts.Card != 5 || len(ts.Distinct) != 0 {
		t.Errorf("scalar table stats = %+v", ts)
	}
}

// FromXYZSpec is the datagen-aware ANALYZE: it derives the catalog for the
// synthetic X/Y/Z workload analytically from the generator parameters,
// without building or scanning the database. Matched tuples draw their join
// key uniformly from spec.Keys values; dangling tuples use a disjoint
// negative range, so the distinct count of a key attribute is roughly
// Keys + dangling rows, and DanglingFrac mirrors spec.DanglingFrac exactly.
func FromXYZSpec(spec datagen.Spec) *Catalog {
	if spec.Keys <= 0 {
		spec.Keys = 1
	}
	c := New(nil)
	keyNDV := func(n int) int {
		d := int(spec.DanglingFrac * float64(n))
		ndv := spec.Keys + d
		if ndv > n {
			ndv = n
		}
		return ndv
	}
	avgSet := float64(spec.SetAttrCard) / 2
	c.SetTable("X", &TableStats{
		Card:      spec.NX,
		Distinct:  map[string]int{"b": keyNDV(spec.NX)},
		AvgSetLen: map[string]float64{"a": avgSet},
	})
	c.SetTable("Y", &TableStats{
		Card: spec.NY,
		Distinct: map[string]int{
			"b": min(spec.Keys, spec.NY),
			"d": keyNDV(spec.NY),
			"a": min(2*max(1, spec.SetAttrCard), spec.NY),
		},
		AvgSetLen: map[string]float64{"c": avgSet},
	})
	// Z draws both attributes from small domains, so duplicate rows are
	// common and Load's set semantics shrinks the stored cardinality; model
	// it as the expected number of distinct draws.
	zDomain := 2 * max(1, spec.SetAttrCard) * spec.Keys
	c.SetTable("Z", &TableStats{
		Card: int(expectedDistinct(spec.NZ, zDomain)),
		Distinct: map[string]int{
			"d": min(spec.Keys, spec.NZ),
			"c": min(2*max(1, spec.SetAttrCard), spec.NZ),
		},
	})
	c.SetDangling("X", "b", "Y", "b", spec.DanglingFrac)
	c.SetDangling("X", "b", "Y", "d", spec.DanglingFrac)
	c.SetDangling("Y", "d", "Z", "d", spec.DanglingFrac)
	return c
}

// expectedDistinct is the expected number of distinct values among n uniform
// draws from a domain of d values: d·(1 − (1 − 1/d)^n).
func expectedDistinct(n, d int) float64 {
	if d <= 0 || n <= 0 {
		return 0
	}
	return float64(d) * (1 - math.Pow(1-1/float64(d), float64(n)))
}

// SetDangling records a dangling fraction directly, bypassing scanning.
func (c *Catalog) SetDangling(lTable, lAttr, rTable, rAttr string, frac float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dangling[danglingKey{lTable, lAttr, rTable, rAttr}] = frac
}

// SetTable records table statistics directly, bypassing scanning.
func (c *Catalog) SetTable(name string, s *TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Distinct == nil {
		s.Distinct = make(map[string]int)
	}
	if s.AvgSetLen == nil {
		s.AvgSetLen = make(map[string]float64)
	}
	if s.Hist == nil {
		s.Hist = make(map[string]*Histogram)
	}
	if s.keys == nil && !s.Approx {
		s.keys = make(map[string]map[string]bool)
	}
	// Tag the override with the current epoch (when the table is backed by
	// storage), so it survives lookups until the table drifts past the bound.
	if c.db != nil {
		if t, ok := c.db.Table(name); ok {
			s.Epoch = t.Epoch()
		}
	}
	c.tables[name] = s
}

// TestCollectOverChunksMatchesLoad: statistics depend on a table's rows, not
// on how its chunks are cut. A table past the histogram sample cap (so the
// histograms sample every other row) whose inserts split chunks collects,
// exact and approximate, the same TableStats as the same rows loaded at once.
func TestCollectOverChunksMatchesLoad(t *testing.T) {
	elem := types.Tuple(types.F("a", types.Int), types.F("b", types.Int), types.F("c", types.SetOf(types.Int)))
	mk := func(a int64) value.Value {
		return value.TupleOf(value.F("a", value.Int(a)), value.F("b", value.Int(a*7919%5000)),
			value.F("c", value.SetOf(value.Int(a%4), value.Int(a%7))))
	}
	rows := make([]value.Value, histogramSampleCap+5000)
	for i := range rows {
		rows[i] = mk(int64(2 * i))
	}
	db := storage.NewDB()
	chunked, whole := db.MustCreate("C", elem), db.MustCreate("W", elem)
	if err := chunked.Load(rows); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 300; k++ {
		v := mk(2*(k*233%int64(len(rows))) + 1)
		if _, err := chunked.Insert(v); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, v)
	}
	if err := whole.Load(rows); err != nil {
		t.Fatal(err)
	}
	cs, _ := chunked.Snapshot()
	ws, _ := whole.Snapshot()
	if len(cs) == len(ws) {
		t.Fatalf("the inserts split no chunk: %d chunks either way", len(cs))
	}
	for _, threshold := range []int{DefaultExactThreshold, len(rows)} {
		got, want := collect(chunked, threshold), collect(whole, threshold)
		got.Epoch, want.Epoch = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d: the chunked table's statistics differ from the loaded one's: Card %d/%d, Distinct %v/%v, histograms equal %v",
				threshold, got.Card, want.Card, got.Distinct, want.Distinct, reflect.DeepEqual(got.Hist, want.Hist))
		}
	}
}
