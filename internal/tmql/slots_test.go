package tmql

import (
	"testing"

	"tmdb/internal/value"
)

// TestShapeSlotsFieldPathComparisons pins the slot rule: int, float and
// string literals compared with a field path get slots in pre-order, and
// every other literal — COUNT bounds, IN-lists, set elements, bool
// comparands, literals beside non-paths — stays part of the shape.
func TestShapeSlotsFieldPathComparisons(t *testing.T) {
	cases := []struct {
		src, shape string
		vals       []value.Value
	}{
		{`SELECT e.name FROM EMP e WHERE e.sal > 3000 AND "Paris" = e.address.city`,
			`SELECT e.name FROM EMP e WHERE e.sal > ?int AND ?string = e.address.city`,
			[]value.Value{value.Int(3000), value.Str("Paris")}},
		{`SELECT e FROM EMP e WHERE e.sal <> 1.5`, `SELECT e FROM EMP e WHERE e.sal <> ?float`,
			[]value.Value{value.Float(1.5)}},
		{`SELECT d FROM DEPT d WHERE COUNT(d.emps) >= 1`, `SELECT d FROM DEPT d WHERE COUNT(d.emps) >= 1`, nil},
		{`SELECT e FROM EMP e WHERE e.sal IN {1, 2} AND e.sal + 1 = 2`,
			`SELECT e FROM EMP e WHERE e.sal IN {1, 2} AND e.sal + 1 = 2`, nil},
		{`SELECT e FROM EMP e WHERE (e.sal = 7) = TRUE`, `SELECT e FROM EMP e WHERE (e.sal = ?int) = true`,
			[]value.Value{value.Int(7)}},
		{`SELECT d FROM DEPT d WHERE EXISTS e IN d.emps (e.sal < 10)`,
			`SELECT d FROM DEPT d WHERE EXISTS e IN d.emps (e.sal < ?int)`, []value.Value{value.Int(10)}},
	}
	for _, c := range cases {
		bound := bindStr(t, c.src)
		vals := MarkSlots(bound)
		if got := Shape(bound); got != c.shape {
			t.Errorf("Shape(%s)\n got %s\nwant %s", c.src, got, c.shape)
		}
		if len(vals) != len(c.vals) {
			t.Fatalf("%s: slots %v, want %v", c.src, vals, c.vals)
		}
		for i := range vals {
			if !value.Equal(vals[i], c.vals[i]) || vals[i].Kind() != c.vals[i].Kind() {
				t.Errorf("%s: slot %d = %s, want %s", c.src, i+1, vals[i], c.vals[i])
			}
		}
		if Format(bound) != Format(bindStr(t, c.src)) {
			t.Errorf("%s: marking changed the formatted text", c.src)
		}
	}
}

// TestBindSlotsCopiesOnlyTheSlottedPaths: substitution leaves the input
// alone, shares every subtree without a slot, keeps inferred types, and
// re-marking the copy yields the substituted values.
func TestBindSlotsCopiesOnlyTheSlottedPaths(t *testing.T) {
	bound := bindStr(t, `SELECT (n = e.name, k = COUNT(e.children)) FROM EMP e WHERE e.sal > 3000 AND e.name <> "x"`)
	MarkSlots(bound)
	before := Format(bound)
	vals := []value.Value{value.Int(10), value.Str("y")}
	got := BindSlots(bound, vals)
	if Format(bound) != before {
		t.Fatal("BindSlots mutated its input")
	}
	if want := `SELECT (n = e.name, k = COUNT(e.children)) FROM EMP e WHERE e.sal > 10 AND e.name <> "y"`; Format(got) != want {
		t.Errorf("got %s\nwant %s", Format(got), want)
	}
	in, out := bound.(*SFW), got.(*SFW)
	if in.Result != out.Result || in.Froms[0].Src != out.Froms[0].Src {
		t.Error("subtrees without slots were copied")
	}
	if out.Type() != in.Type() || out.Where.Type() == nil {
		t.Error("inferred types were not kept")
	}
	if again := MarkSlots(got); !value.Equal(again[0], vals[0]) || !value.Equal(again[1], vals[1]) {
		t.Errorf("re-marked slots %v, want %v", again, vals)
	}
	if BindSlots(in.Result, vals) != in.Result {
		t.Error("a tree without slots was copied")
	}
}
