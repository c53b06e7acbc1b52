//go:build !race

package planner

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/tmql"
)

// TestLeadingRangeNoConjunctAllocs holds the matcher to its cost on the
// selections every ad-hoc point query plans: one without a comparison of
// the table's first label allocates nothing. (The race detector changes
// allocation counts, so this file is skipped under -race.)
func TestLeadingRangeNoConjunctAllocs(t *testing.T) {
	_, b, _, _ := accessEnv(t)
	y, _ := b.Scan("Y")
	w, _ := b.Map(y, "y", tmql.MustParse("(w = y)"))
	direct, _ := b.Select(y, "y", tmql.MustParse("y.b = 3 AND y.d = 4 AND y.a <> 123456"))
	chained, _ := b.Select(w, "v", tmql.MustParse("v.w.d >= 3 AND v.w.b < 9"))
	if n := testing.AllocsPerRun(100, func() {
		leadingRange(direct)
		leadingRange(chained)
	}); n != 0 {
		t.Errorf("%v allocations matching selections without a leading-label conjunct", n)
	}
}

// TestResolveUnfusedMapAllocs: the resolver runs for every candidate a miss
// costs, and a Map it does not fuse must cost it nothing — one over a scan,
// one over a join whose output reads the joined row whole, and one whose
// output does not compile.
func TestResolveUnfusedMapAllocs(t *testing.T) {
	_, b, _, _ := accessEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	j, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	var maps []algebra.Plan
	for _, m := range []struct {
		in  algebra.Plan
		out string
	}{{x, "(b = x.b)"}, {j, "(r = x)"}, {j, "x.b + x.d"}} {
		p, err := b.Map(m.in, "x", tmql.MustParse(m.out))
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, p)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range maps {
			if op := resolve(m, PhysicalSpec{}, noIndexes); op.join != nil {
				t.Fatalf("%s fused", m.Describe(nil))
			}
		}
	}); n != 0 {
		t.Errorf("%v allocations resolving maps the rule does not fuse", n)
	}
}
