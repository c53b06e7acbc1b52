//go:build !race

package engine

import (
	"fmt"
	"runtime"
	"testing"

	"tmdb/internal/datagen"
)

// TestPointPathAllocs guards the allocations of the prepared point lookups
// the point_wire, adhoc_plan and mixed_rw benchmark workloads are made of,
// on the benchmark's dataset shape and indexes, served from the plan cache.
// The bounds are the allocations per execution measured once a plan-cache
// hit stopped formatting its key and stopped resolving its plan, keeping the
// resolved tree and fetching only the live indexes it names, and once the
// operators' output buffers and the collector's scratch came from pools
// (go1.24, amd64): a lookup that allocates its key again, runs the resolver
// again, grows a buffer of its own again, or allocates anything else per
// execution fails it. The race detector changes
// allocation counts, so -race builds leave it out.
func TestPointPathAllocs(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994})
	eng := New(cat, db)
	for _, ix := range [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}} {
		if err := eng.CreateIndex(ix[0], ix[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Analyze()
	ys, _ := db.Table("Y")
	y := ys.AsSet().Elems()[0]
	const semi = ` AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	for _, tc := range []struct {
		name, query string
		max         float64
	}{
		{"point_x", `SELECT x FROM X x WHERE x.b = 7`, 8},
		{"point_y", fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, y.MustGet("b").AsInt(), y.MustGet("d").AsInt()), 9},
		{"point_y_miss", `SELECT y.a FROM Y y WHERE y.b = 7 AND y.d = 7`, 7},
		{"semi_pt", `SELECT x FROM X x WHERE x.b = 7` + semi, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := eng.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Query(Options{}); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				res, err := p.Query(Options{})
				if err != nil || !res.CacheHit {
					t.Fatalf("execution missed the plan cache (err %v)", err)
				}
			})
			t.Logf("%.0f allocs per execution", allocs)
			if allocs > tc.max {
				t.Errorf("%.0f allocs per execution, want at most %.0f", allocs, tc.max)
			}
		})
	}
}

// TestPointHitOtherConstantsAllocs holds an ad-hoc point lookup that hits a
// plan cached for other constants to what a hit on a plan cached for its own
// costs, on TestPointPathAllocs' dataset and indexes: the cached tree is
// compiled with the text's values, never copied and resolved again. Two
// engines over one database run the same text, one having planned its shape
// with other constants, the other with the text's own, so both executions
// read the same rows.
func TestPointHitOtherConstantsAllocs(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994})
	other, same := New(cat, db), New(cat, db)
	for _, ix := range [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}} {
		if err := other.CreateIndex(ix[0], ix[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	other.Analyze()
	same.Analyze()
	ys, _ := db.Table("Y")
	var pointY []string
	for _, y := range ys.AsSet().Elems()[:2] {
		pointY = append(pointY, fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, y.MustGet("b").AsInt(), y.MustGet("d").AsInt()))
	}
	const semi = ` AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	for _, tc := range []struct{ name, planned, text string }{
		{"point_x", `SELECT x FROM X x WHERE x.b = 3`, `SELECT x FROM X x WHERE x.b = 7`},
		{"point_y", pointY[1], pointY[0]},
		{"semi_pt", `SELECT x FROM X x WHERE x.b = 3` + semi, `SELECT x FROM X x WHERE x.b = 7` + semi},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(eng *Engine, planned string) float64 {
				if _, err := eng.Query(planned, Options{}); err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(50, func() {
					res, err := eng.Query(tc.text, Options{})
					if err != nil || !res.CacheHit {
						t.Fatalf("execution missed the plan cache (err %v)", err)
					}
				})
			}
			o, s := allocs(other, tc.planned), allocs(same, tc.text)
			t.Logf("%.0f allocs per hit planned with other constants, %.0f with its own", o, s)
			if o > s {
				t.Errorf("a hit planned with other constants allocates %.0f, more than the %.0f of one planned with its own", o, s)
			}
		})
	}
}

// TestNestedPathAllocs guards the allocations of the six prepared statements
// of the nested_exec benchmark workload, on its unindexed dataset after
// Analyze, served from the plan cache and from warm snapshot memos. Each
// bound is the allocations per warm execution measured once a plan-cache
// hit stopped resolving its plan (go1.24, amd64), with hash builds over
// closed subtrees and the nest join's groups kept per snapshot, and the
// projections of selnest and flat run inside the join's probe over the rows
// of unbuilt wraps, their roots' rows deduplicated once, by the collector,
// and the operators' output buffers and the collector's scratch borrowed from
// pools: the resolver running per execution again, a build or group
// computation no longer served from the memo, a joined row, wrap or tuple
// built per row again, a deduplicating map back at the root, a buffer grown
// per execution again, or a per-row or per-distinct-key allocation creeping
// back into a hash build, DISTINCT, ν, a set operation or the collector,
// fails it. Counts alone miss a buffer that grows per execution by doubling,
// so in and flat are also held to their bytes per warm execution (from
// runtime.MemStats.TotalAlloc), which were 88 KB and 101 KB while each
// execution grew its own buffers and collector scratch.
func TestNestedPathAllocs(t *testing.T) {
	cat, db := datagen.XYZ(datagen.Spec{NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994})
	eng := New(cat, db)
	eng.Analyze()
	for _, tc := range []struct {
		name, query string
		max         float64
		maxKB       float64 // 0: bytes unchecked
	}{
		{"in", `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`, 16, 48},
		{"subseteq", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`, 22, 0},
		{"chain3", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`, 24, 0},
		{"count", `SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.b) >= 2`, 25, 0},
		{"selnest", `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x`, 61, 0},
		{"flat", `SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`, 22, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := eng.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Query(Options{}); err != nil {
				t.Fatal(err)
			}
			run := func() {
				res, err := p.Query(Options{})
				if err != nil || !res.CacheHit {
					t.Fatalf("execution missed the plan cache (err %v)", err)
				}
			}
			allocs := testing.AllocsPerRun(10, run)
			t.Logf("%.0f allocs per execution", allocs)
			if allocs > tc.max {
				t.Errorf("%.0f allocs per execution, want at most %.0f", allocs, tc.max)
			}
			if tc.maxKB == 0 {
				return
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
			t.Logf("%.1f KB per execution", kb)
			if kb > tc.maxKB {
				t.Errorf("%.1f KB per execution, want at most %.0f", kb, tc.maxKB)
			}
		})
	}
}
