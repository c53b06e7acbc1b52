package eval

import (
	"strings"
	"testing"

	"tmdb/internal/datagen"
	"tmdb/internal/schema"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// evalQ parses, binds, and evaluates a query against the given catalog/db.
func evalQ(t *testing.T, cat *schema.Catalog, db *storage.DB, src string) value.Value {
	t.Helper()
	e, err := tmql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	be, err := tmql.NewBinder(cat).Bind(e)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	v, err := New(db).Eval(be)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalScalars(t *testing.T) {
	cases := map[string]value.Value{
		"1 + 2 * 3":                  value.Int(7),
		"(1 + 2) * 3":                value.Int(9),
		"7 / 2":                      value.Float(3.5),
		"7 % 3":                      value.Int(1),
		"-(4)":                       value.Int(-4),
		"-2.5":                       value.Float(-2.5),
		"1 < 2":                      value.True,
		"2 <= 1":                     value.False,
		"1 = 1.0":                    value.True,
		"\"a\" <> \"b\"":             value.True,
		"TRUE AND FALSE":             value.False,
		"TRUE OR FALSE":              value.True,
		"NOT TRUE":                   value.False,
		"1 IN {1, 2}":                value.True,
		"3 NOT IN {1, 2}":            value.True,
		"{1} SUBSETEQ {1}":           value.True,
		"{1} SUBSET {1}":             value.False,
		"{1, 2} SUPSET {1}":          value.True,
		"{1} UNION {2}":              value.SetOf(value.Int(1), value.Int(2)),
		"{1, 2} INTERSECT {2, 3}":    value.SetOf(value.Int(2)),
		"{1, 2} MINUS {2}":           value.SetOf(value.Int(1)),
		"COUNT({1, 2, 2})":           value.Int(2),
		"SUM({1, 2})":                value.Int(3),
		"MIN({3, 1})":                value.Int(1),
		"MAX({3, 1})":                value.Int(3),
		"AVG({1, 3})":                value.Float(2),
		"COUNT([1, 1])":              value.Int(2),
		"(a = 1, b = 2).a":           value.Int(1),
		"5 WITH q = 3":               value.Int(5),
		"q + 1 WITH q = 3":           value.Int(4),
		"EXISTS v IN {1, 2} (v = 2)": value.True,
		"EXISTS v IN {} (TRUE)":      value.False,
		"FORALL v IN {1, 2} (v > 0)": value.True,
		"FORALL v IN {} (FALSE)":     value.True,
		"UNNEST({{1, 2}, {2, 3}})":   value.SetOf(value.Int(1), value.Int(2), value.Int(3)),
	}
	for src, want := range cases {
		got := evalQ(t, nil, nil, src)
		if !value.Equal(got, want) {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []struct{ src, frag string }{
		{"1 / 0", "division by zero"},
		{"1 % 0", "modulo by zero"},
		{"AVG({})", "AVG of empty"},
		{"MIN({})", "MIN of empty"},
	}
	for _, c := range bad {
		e := tmql.MustParse(c.src)
		be, err := tmql.NewBinder(nil).Bind(e)
		if err != nil {
			t.Fatalf("bind %q: %v", c.src, err)
		}
		_, err = New(nil).Eval(be)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Eval(%q) error = %v, want mention of %q", c.src, err, c.frag)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// RHS would divide by zero; AND must not evaluate it.
	got := evalQ(t, nil, nil, "FALSE AND 1 / 0 = 1")
	if !value.Equal(got, value.False) {
		t.Errorf("short-circuit AND = %s", got)
	}
	got = evalQ(t, nil, nil, "TRUE OR 1 / 0 = 1")
	if !value.Equal(got, value.True) {
		t.Errorf("short-circuit OR = %s", got)
	}
}

func TestEvalSFWBasics(t *testing.T) {
	cat, db := datagen.Table1()
	got := evalQ(t, cat, db, "SELECT x.e FROM X x WHERE x.d = 1")
	if !value.Equal(got, value.SetOf(value.Int(1))) {
		t.Errorf("got %s", got)
	}
	// Flat join over two FROM items.
	got = evalQ(t, cat, db, "SELECT (e = x.e, a = y.a) FROM X x, Y y WHERE x.d = y.b")
	if got.Len() != 3 {
		t.Errorf("join result %s", got)
	}
}

func TestEvalCorrelatedSubquery(t *testing.T) {
	cat, db := datagen.Table1()
	// For each x, the set of matching y.a values.
	got := evalQ(t, cat, db, `SELECT (e = x.e, as = SELECT y.a FROM Y y WHERE x.d = y.b) FROM X x`)
	want := value.SetOf(
		value.TupleOf(value.F("e", value.Int(1)), value.F("as", value.SetOf(value.Int(1), value.Int(2)))),
		value.TupleOf(value.F("e", value.Int(2)), value.F("as", value.EmptySet)),
		value.TupleOf(value.F("e", value.Int(3)), value.F("as", value.SetOf(value.Int(3)))),
	)
	if !value.Equal(got, want) {
		t.Errorf("got %s\nwant %s", got, want)
	}
}

func TestEvalCountBugSemantics(t *testing.T) {
	// The §2 example: dangling R tuples with B = 0 must be in the answer.
	cat, db := datagen.RS(20, 40, 5, 0.3, 7)
	got := evalQ(t, cat, db,
		`SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`)
	// Independently verify against a hand computation.
	rTab, _ := db.Table("R")
	sTab, _ := db.Table("S")
	want := value.NewSetBuilder(0)
	for _, r := range rTab.Rows() {
		cnt := value.NewSetBuilder(0)
		for _, s := range sTab.Rows() {
			if value.Equal(r.MustGet("C"), s.MustGet("C")) {
				cnt.Add(s.MustGet("D"))
			}
		}
		if r.MustGet("B").AsInt() == int64(cnt.Build().Len()) {
			want.Add(r)
		}
	}
	wantV := want.Build()
	if !value.Equal(got, wantV) {
		t.Errorf("COUNT semantics differ:\n got %s\nwant %s", got, wantV)
	}
	// The bug-triggering tuples must exist in this instance.
	dangling := 0
	for _, r := range rTab.Rows() {
		if r.MustGet("C").AsInt() < 0 && r.MustGet("B").AsInt() == 0 {
			dangling++
		}
	}
	if dangling == 0 {
		t.Fatal("test instance must contain dangling R tuples with B = 0")
	}
}

func TestEvalPaperQ1(t *testing.T) {
	cat, db := datagen.Company(6, 30, 3)
	got := evalQ(t, cat, db, `SELECT d FROM DEPT d
		WHERE (s = d.address.street, c = d.address.city)
		  IN SELECT (s = e.address.street, c = e.address.city) FROM d.emps e`)
	// Oracle: manual loop.
	deptTab, _ := db.Table("DEPT")
	want := value.NewSetBuilder(0)
	for _, d := range deptTab.Rows() {
		dk := value.TupleOf(
			value.F("s", d.MustGet("address").MustGet("street")),
			value.F("c", d.MustGet("address").MustGet("city")),
		)
		for _, e := range d.MustGet("emps").Elems() {
			ek := value.TupleOf(
				value.F("s", e.MustGet("address").MustGet("street")),
				value.F("c", e.MustGet("address").MustGet("city")),
			)
			if value.Equal(dk, ek) {
				want.Add(d)
				break
			}
		}
	}
	wantV := want.Build()
	if !value.Equal(got, wantV) {
		t.Errorf("Q1: got %d depts, want %d", got.Len(), wantV.Len())
	}
}

func TestEvalPaperQ2(t *testing.T) {
	cat, db := datagen.Company(4, 20, 5)
	got := evalQ(t, cat, db, `SELECT (dname = d.name,
			emps = SELECT e.name FROM EMP e WHERE e.address.city = d.address.city)
		FROM DEPT d`)
	if got.Len() != 4 {
		t.Fatalf("Q2 should produce one tuple per department, got %d", got.Len())
	}
	for _, row := range got.Elems() {
		if _, ok := row.Get("dname"); !ok {
			t.Fatalf("row shape wrong: %s", row)
		}
		if _, ok := row.Get("emps"); !ok {
			t.Fatalf("row shape wrong: %s", row)
		}
		if row.MustGet("emps").Kind() != value.KindSet {
			t.Fatalf("emps not a set: %s", row)
		}
	}
}

func TestEvalStepsCounter(t *testing.T) {
	cat, db := datagen.Table1()
	ev := New(db)
	e, _ := tmql.Parse("SELECT x FROM X x")
	be, _ := tmql.NewBinder(cat).Bind(e)
	if _, err := ev.Eval(be); err != nil {
		t.Fatal(err)
	}
	if ev.Steps == 0 {
		t.Error("step counter did not advance")
	}
}

func TestEvalUnboundVariable(t *testing.T) {
	// Construct an unbound Var directly (binder would reject it).
	ev := New(nil)
	_, err := ev.EvalEnv(&tmql.Var{Name: "ghost"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("err = %v", err)
	}
}

func TestEnvLookup(t *testing.T) {
	var env *Env
	env = env.Bind("a", value.Int(1)).Bind("b", value.Int(2)).Bind("a", value.Int(3))
	if v, ok := env.Lookup("a"); !ok || v.AsInt() != 3 {
		t.Errorf("shadowing failed: %v %v", v, ok)
	}
	if v, ok := env.Lookup("b"); !ok || v.AsInt() != 2 {
		t.Errorf("b = %v %v", v, ok)
	}
	if _, ok := env.Lookup("zz"); ok {
		t.Error("zz should be unbound")
	}
}
