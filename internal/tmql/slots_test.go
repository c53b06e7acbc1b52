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
		// A minus written before a nonzero number is part of the literal; a
		// negated zero or parenthesized number stays a negation.
		{`SELECT e FROM EMP e WHERE e.sal > -3 AND e.sal < -0.5`, `SELECT e FROM EMP e WHERE e.sal > ?int AND e.sal < ?float`,
			[]value.Value{value.Int(-3), value.Float(-0.5)}},
		{`SELECT e FROM EMP e WHERE e.sal > -(3) AND e.sal <> -0`, `SELECT e FROM EMP e WHERE e.sal > -3 AND e.sal <> -0`, nil},
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

// TestFormatArgsPrintsArguments: FormatArgs prints each slotted literal as
// its argument and every other literal as written, and nil args print the
// literals themselves.
func TestFormatArgsPrintsArguments(t *testing.T) {
	const src = `SELECT (n = e.name, k = COUNT(e.children)) FROM EMP e WHERE e.sal > 3000 AND e.name <> "x" AND COUNT(e.children) >= 1`
	bound := bindStr(t, src)
	MarkSlots(bound)
	args := []value.Value{value.Int(10), value.Str("y")}
	if got, want := FormatArgs(bound, args), `SELECT (n = e.name, k = COUNT(e.children)) FROM EMP e WHERE e.sal > 10 AND e.name <> "y" AND COUNT(e.children) >= 1`; got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
	if got, want := FormatArgs(bound, nil), Format(bindStr(t, src)); got != want {
		t.Errorf("nil args print %s, want the literals %s", got, want)
	}
}
