//go:build !race

package planner

import (
	"testing"

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
