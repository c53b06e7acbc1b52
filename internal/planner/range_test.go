package planner

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
)

// TestLeadingRangeShapes pins the leading-label matcher: each operator in
// both orientations, intersections, closed constant expressions, chains
// through selections and wrapper maps, a set-valued first label (ordered by
// value.Compare like any other), and the selections it must leave alone
// (another label, an open constant, an operator or a disjunction the range
// cannot express).
func TestLeadingRangeShapes(t *testing.T) {
	_, b, _, _ := accessEnv(t)
	x, _ := b.Scan("X")
	y, _ := b.Scan("Y")
	sel := func(in algebra.Plan, v, pred string) *algebra.Select {
		t.Helper()
		s, err := b.Select(in, v, tmql.MustParse(pred))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wrapped, err := b.Map(y, "y", tmql.MustParse("(w = y)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    *algebra.Select
		want string // the range, "" for none
	}{
		{sel(y, "y", "y.a = 3"), "[3, 3]"},
		{sel(y, "y", "3 = y.a"), "[3, 3]"},
		{sel(y, "y", "y.a < 3"), "(-∞, 3)"},
		{sel(y, "y", "3 < y.a"), "(3, +∞)"},
		{sel(y, "y", "y.a <= 3"), "(-∞, 3]"},
		{sel(y, "y", "3 <= y.a"), "[3, +∞)"},
		{sel(y, "y", "y.a > 3"), "(3, +∞)"},
		{sel(y, "y", "3 > y.a"), "(-∞, 3)"},
		{sel(y, "y", "y.a >= 3"), "[3, +∞)"},
		{sel(y, "y", "3 >= y.a"), "(-∞, 3]"},
		{sel(y, "y", "y.a >= 2 AND y.b = 7 AND y.a < 2 + 3 AND 4 >= y.a"), "[2, 4]"},
		{sel(y, "y", "y.a > 2 AND y.a >= 2"), "(2, +∞)"},
		{sel(y, "y", "y.a < 2.5 AND y.a <= 2.5"), "(-∞, 2.5)"},
		{sel(sel(y, "y", "y.a <= 9"), "y", "y.a > 1"), "(1, +∞)"},
		{sel(wrapped, "v", "v.w.a = 4"), "[4, 4]"},
		{sel(y, "y", "y.b = 3"), ""},
		{sel(y, "y", "y.a <> 3"), ""},
		{sel(y, "y", "y.a = 3 OR y.a = 4"), ""},
		{sel(y, "y", "y.a = y.b"), ""},
		{sel(x, "x", "x.b = 3"), ""},
		{sel(x, "x", "x.a = {1}"), "[{1}, {1}]"},
	} {
		r, ok := leadingRange(tc.s)
		got := ""
		if ok {
			got = r.keyRange(nil).String()
		}
		if got != tc.want {
			t.Errorf("%s: range %q, want %q", tc.s.Describe(nil), got, tc.want)
		}
	}
}
