package datagen

import (
	"testing"

	"tmdb/internal/types"
	"tmdb/internal/value"
)

func TestCompanyDeterministic(t *testing.T) {
	_, db1 := Company(4, 20, 7)
	_, db2 := Company(4, 20, 7)
	for _, ext := range []string{"EMP", "DEPT"} {
		t1, _ := db1.Table(ext)
		t2, _ := db2.Table(ext)
		if !value.Equal(t1.AsSet(), t2.AsSet()) {
			t.Errorf("%s not deterministic for same seed", ext)
		}
	}
	_, db3 := Company(4, 20, 8)
	t1, _ := db1.Table("EMP")
	t3, _ := db3.Table("EMP")
	if value.Equal(t1.AsSet(), t3.AsSet()) {
		t.Error("different seeds should differ")
	}
}

func TestCompanyConformsToSchema(t *testing.T) {
	cat, db := Company(3, 12, 1)
	for _, ext := range []string{"EMP", "DEPT"} {
		et, err := cat.ElementType(ext)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(ext)
		if tab.Len() == 0 {
			t.Errorf("%s is empty", ext)
		}
		for _, r := range tab.Rows() {
			if !types.Check(r, et) {
				t.Fatalf("%s row %s does not conform to %s", ext, r, et)
			}
		}
	}
}

func TestTable1Exact(t *testing.T) {
	_, db := Table1()
	x, _ := db.Table("X")
	y, _ := db.Table("Y")
	if x.Len() != 3 || y.Len() != 3 {
		t.Fatalf("X=%d Y=%d", x.Len(), y.Len())
	}
	wantX := value.SetOf(
		value.TupleOf(value.F("e", value.Int(1)), value.F("d", value.Int(1))),
		value.TupleOf(value.F("e", value.Int(2)), value.F("d", value.Int(2))),
		value.TupleOf(value.F("e", value.Int(3)), value.F("d", value.Int(3))),
	)
	if !value.Equal(x.AsSet(), wantX) {
		t.Errorf("X = %s", x.AsSet())
	}
}

func TestXYZSpec(t *testing.T) {
	spec := Spec{NX: 50, NY: 100, NZ: 60, Keys: 8, DanglingFrac: 0.4, SetAttrCard: 3, Seed: 2}
	cat, db := XYZ(spec)
	for _, ext := range []string{"X", "Y", "Z"} {
		et, err := cat.ElementType(ext)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table(ext)
		for _, r := range tab.Rows() {
			if !types.Check(r, et) {
				t.Fatalf("%s row %s ill-typed", ext, r)
			}
		}
	}
	// Dangling fraction: roughly 40% of X rows have negative b keys.
	x, _ := db.Table("X")
	neg := 0
	for _, r := range x.Rows() {
		if r.MustGet("b").AsInt() < 0 {
			neg++
		}
	}
	if neg == 0 {
		t.Error("no dangling X tuples despite DanglingFrac = 0.4")
	}
	// Load's dedup may shrink counts slightly; sanity bounds only.
	if x.Len() == 0 || x.Len() > spec.NX {
		t.Errorf("X len = %d", x.Len())
	}
	// Zero keys must not panic (degenerate spec).
	XYZ(Spec{NX: 2, NY: 2, NZ: 2, Keys: 0, Seed: 1})
}

func TestRSCountBugInstance(t *testing.T) {
	_, db := RS(40, 80, 8, 0.25, 5)
	r, _ := db.Table("R")
	s, _ := db.Table("S")
	if r.Len() == 0 || s.Len() == 0 {
		t.Fatal("empty RS instance")
	}
	// The generator must produce dangling R tuples with B = 0 (the
	// bug-triggering pattern) and matched R tuples with correct counts.
	sCounts := map[int64]int64{}
	for _, sr := range s.Rows() {
		sCounts[sr.MustGet("C").AsInt()]++
	}
	bugTriggers, inAnswer := 0, 0
	for _, rr := range r.Rows() {
		c := rr.MustGet("C").AsInt()
		b := rr.MustGet("B").AsInt()
		if c < 0 && b == 0 {
			bugTriggers++
		}
		if b == sCounts[c] {
			inAnswer++
		}
	}
	if bugTriggers == 0 {
		t.Error("RS instance has no COUNT-bug triggers")
	}
	if inAnswer == 0 {
		t.Error("RS instance has an empty answer")
	}
}
