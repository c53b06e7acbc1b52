// Benchmarks regenerating the paper's performance claims, one group per
// experiment listed by `go run ./cmd/repro -list`. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; the claims are about shape: who
// wins, by roughly what factor, and how gaps scale with input size. These are
// developer tools and gate nothing; performance claims are judged by
// `bash bench/run.sh` against BENCHMARK.json (see BENCHMARKS.md).
package tmdb_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"tmdb"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

func benchQuery(b *testing.B, eng *tmdb.Engine, q string, s core.Strategy, ji planner.JoinImpl) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(q, engine.Options{Strategy: s, Joins: ji})
		if err != nil {
			b.Fatal(err)
		}
		if res.Value.Len() == 0 && i == 0 {
			b.Log("warning: empty result")
		}
	}
}

func xyzEngine(nx, ny, nz int) *tmdb.Engine {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: nx, NY: ny, NZ: nz, Keys: max(1, nx/4), DanglingFrac: 0.25, SetAttrCard: 3, Seed: 7,
	})
	return tmdb.New(cat, db)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- B1: flattening vs nested-loop processing (paper §1/§2 motivation) ---

func BenchmarkB1NaiveVsUnnestIN(b *testing.B) {
	const q = `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	for _, n := range []int{100, 400} {
		eng := xyzEngine(n, 2*n, 0)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyNaive, planner.ImplAuto)
		})
		b.Run(fmt.Sprintf("semijoin-nl/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplNestedLoop)
		})
		b.Run(fmt.Sprintf("semijoin-hash/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplHash)
		})
	}
}

// --- B2: semijoin/antijoin vs nest join when grouping is unnecessary ---

func BenchmarkB2SemiVsNestJoin(b *testing.B) {
	flat := `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	grouped := `SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.d AND y.d = x.b) >= COUNT({1})`
	for _, n := range []int{200, 800} {
		eng := xyzEngine(n, 2*n, 0)
		b.Run(fmt.Sprintf("flat-semijoin/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, flat, core.StrategyNestJoin, planner.ImplAuto)
		})
		b.Run(fmt.Sprintf("nestjoin-sigma/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, grouped, core.StrategyNestJoin, planner.ImplAuto)
		})
	}
}

// --- B3: nest join vs outerjoin+ν* vs Kim on COUNT between blocks ---

func BenchmarkB3NestJoinVsOuterNest(b *testing.B) {
	const q = `SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`
	for _, n := range []int{200, 800} {
		cat, db := datagen.RS(n, 2*n, n/5, 0.3, 11)
		eng := tmdb.New(cat, db)
		b.Run(fmt.Sprintf("nestjoin/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplAuto)
		})
		b.Run(fmt.Sprintf("outerjoin-nest/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyOuterJoin, planner.ImplAuto)
		})
		b.Run(fmt.Sprintf("kim-buggy/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyKim, planner.ImplAuto)
		})
	}
}

// --- B4: nest join physical implementations (§6 Implementation) ---

func BenchmarkB4NestJoinImpls(b *testing.B) {
	const q = `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	for _, n := range []int{200, 800} {
		eng := xyzEngine(n, 10*n, 0)
		for _, impl := range []struct {
			name string
			ji   planner.JoinImpl
		}{
			{"nested-loop", planner.ImplNestedLoop},
			{"hash", planner.ImplHash},
			{"sort-merge", planner.ImplMerge},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", impl.name, n), func(b *testing.B) {
				benchQuery(b, eng, q, core.StrategyNestJoin, impl.ji)
			})
		}
	}
}

// --- B5: nesting depth — §8 chains ---

func BenchmarkB5ChainDepth(b *testing.B) {
	q2 := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	q3 := `SELECT x FROM X x
 WHERE x.a SUBSETEQ
   SELECT y.a FROM Y y
   WHERE x.b = y.b AND
     y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`
	eng := xyzEngine(150, 300, 300)
	for _, c := range []struct {
		name string
		q    string
		s    core.Strategy
	}{
		{"2block-naive", q2, core.StrategyNaive},
		{"2block-nestjoin", q2, core.StrategyNestJoin},
		{"3block-naive", q3, core.StrategyNaive},
		{"3block-nestjoin", q3, core.StrategyNestJoin},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchQuery(b, eng, c.q, c.s, planner.ImplAuto)
		})
	}
}

// --- T1/Q12-adjacent microbenches: the operators themselves ---

func BenchmarkSelectClauseNesting(b *testing.B) {
	const q = `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`
	eng := xyzEngine(300, 900, 0)
	b.Run("naive", func(b *testing.B) {
		benchQuery(b, eng, q, core.StrategyNaive, planner.ImplAuto)
	})
	b.Run("nestjoin", func(b *testing.B) {
		benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplAuto)
	})
}

func BenchmarkUnnestCollapse(b *testing.B) {
	const q = `UNNEST(SELECT (SELECT (a = x.b, b = y.a) FROM Y y WHERE x.b = y.d) FROM X x)`
	eng := xyzEngine(300, 900, 0)
	b.Run("naive", func(b *testing.B) {
		benchQuery(b, eng, q, core.StrategyNaive, planner.ImplAuto)
	})
	b.Run("flat-join", func(b *testing.B) {
		benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplAuto)
	})
}

func BenchmarkParseBindTranslate(b *testing.B) {
	cat, _ := datagen.XYZ(datagen.DefaultSpec())
	eng := tmdb.New(cat, nil)
	_ = eng
	const q = `SELECT x FROM X x
 WHERE x.a SUBSETEQ
   SELECT y.a FROM Y y
   WHERE x.b = y.b AND
     y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := parseBind(cat, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewTranslator(cat).Translate(e, core.StrategyNestJoin); err != nil {
			b.Fatal(err)
		}
	}
}

func parseBind(cat *tmdb.Catalog, q string) (tmql.Expr, error) {
	e, err := tmql.Parse(q)
	if err != nil {
		return nil, err
	}
	return tmql.NewBinder(cat).Bind(e)
}

// --- Plan cache: repeated auto-planned queries skip strategy enumeration ---

func BenchmarkPlanCacheRepeatedAuto(b *testing.B) {
	const q = `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	run := func(b *testing.B, eng *tmdb.Engine) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cached", func(b *testing.B) {
		eng := xyzEngine(200, 400, 0)
		run(b, eng)
	})
	b.Run("cold", func(b *testing.B) {
		eng := xyzEngine(200, 400, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.ClearPlanCache()
			if _, err := eng.Query(q, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- B6: rewrite-sensitive pairs — the unified optimizer's cost model must
// keep picking the right logical alternative in both directions. "pushdown"
// is a query where the §6-rewritten (selection pushed through the nest join)
// plan beats the translation as produced; "nested-wins" is a grouping query
// where the paper's nested-preserving nest join beats the relational
// outerjoin+ν* flattening. In each trio the auto run should track the
// winning pinned variant; a cost-model regression shows up as auto tracking
// the loser. CI runs this group as a smoke test. ---

func BenchmarkB6RewriteSensitive(b *testing.B) {
	benchOpts := func(b *testing.B, eng *tmdb.Engine, q string, opts engine.Options) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	pushdown := `SELECT x.b FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b) AND x.b < 0`
	eng := xyzEngine(400, 1200, 0)
	b.Run("pushdown/pin-base", func(b *testing.B) {
		benchOpts(b, eng, pushdown, engine.Options{PinAlt: tmdb.AltBase})
	})
	b.Run("pushdown/pin-rewrite", func(b *testing.B) {
		benchOpts(b, eng, pushdown, engine.Options{PinAlt: tmdb.AltRewrite})
	})
	b.Run("pushdown/auto", func(b *testing.B) {
		benchOpts(b, eng, pushdown, engine.Options{})
	})

	nested := `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`
	eng2 := xyzEngine(400, 1600, 0)
	b.Run("nested-wins/nestjoin", func(b *testing.B) {
		benchQuery(b, eng2, nested, core.StrategyNestJoin, planner.ImplAuto)
	})
	b.Run("nested-wins/outerjoin-flattened", func(b *testing.B) {
		benchQuery(b, eng2, nested, core.StrategyOuterJoin, planner.ImplAuto)
	})
	b.Run("nested-wins/auto", func(b *testing.B) {
		benchOpts(b, eng2, nested, engine.Options{})
	})
}

// --- B7: index-backed joins — persistent index probes vs per-query builds ---

// BenchmarkB7IndexJoin measures the idxjoin family against the hash family
// on the B1 semijoin shape: the persistent index on Y.d removes the
// right-input drain and the per-query hash build, so idxjoin's advantage
// grows with the inner relation. The mutated variant re-runs the query after
// an insert each iteration, measuring the per-table invalidation path
// (replan + incremental index maintenance) end to end.
func BenchmarkB7IndexJoin(b *testing.B) {
	const q = `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`
	for _, n := range []int{400, 2000} {
		eng := xyzEngine(n, 5*n, 0)
		if err := eng.CreateIndex("Y", "d"); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplHash)
		})
		b.Run(fmt.Sprintf("idxjoin/n=%d", n), func(b *testing.B) {
			benchQuery(b, eng, q, core.StrategyNestJoin, planner.ImplIndex)
		})
		b.Run(fmt.Sprintf("auto/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(q, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Joins != planner.ImplIndex && i == 0 {
					b.Logf("note: auto picked %s, not idxjoin", res.Joins)
				}
			}
		})
		b.Run(fmt.Sprintf("idxjoin-mutating/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.InsertValue("Y", datagen.YRow(int64(i), int64(i%7), int64(i%5), int64(1_000_000+i))); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Query(q, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B8: index-backed access paths — point selections via persistent
// indexes vs full scans. The fullscan/idxscan pair pins the access-path win
// (≥5× at n=2000 is the acceptance bar: the scan pays n predicate
// evaluations, the index scan one probe plus a handful of bucket rows); auto
// must track the winner. The composite variant probes Y(b,d) with both
// conjuncts folded into one point. ---

func BenchmarkB8IndexScan(b *testing.B) {
	const q = `SELECT x FROM X x WHERE x.b = 3`
	for _, n := range []int{400, 2000} {
		eng := xyzEngine(n, n, 0)
		if err := eng.CreateIndex("X", "b"); err != nil {
			b.Fatal(err)
		}
		benchAccess := func(b *testing.B, q string, access planner.AccessPath) {
			b.Helper()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q, engine.Options{Access: access}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("fullscan/n=%d", n), func(b *testing.B) {
			benchAccess(b, q, planner.AccessScan)
		})
		b.Run(fmt.Sprintf("idxscan/n=%d", n), func(b *testing.B) {
			benchAccess(b, q, planner.AccessIndex)
		})
		b.Run(fmt.Sprintf("auto/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(q, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Access != planner.AccessIndex && i == 0 {
					b.Logf("note: auto picked access=%s, not idxscan", res.Access)
				}
			}
		})
		if err := eng.CreateIndex("Y", "b", "d"); err != nil {
			b.Fatal(err)
		}
		const qc = `SELECT y.a FROM Y y WHERE y.b = 3 AND y.d = 2`
		b.Run(fmt.Sprintf("composite-fullscan/n=%d", n), func(b *testing.B) {
			benchAccess(b, qc, planner.AccessScan)
		})
		b.Run(fmt.Sprintf("composite-idxscan/n=%d", n), func(b *testing.B) {
			benchAccess(b, qc, planner.AccessIndex)
		})
	}
}

// --- nested_exec at the library boundary: the repo benchmark's six nested
// statements (bench/workloads.go's nestedQueries) as prepared statements on
// its dataset, executed through Prepared.Query with no server in between.
// This is the loop to profile the paper's operators with:
//
//	go test -run=NONE -bench=NestedExecStatements -benchmem -cpu 2 \
//	    -cpuprofile cpu.out -memprofile mem.out -outputdir <dir>
//
// Each statement runs warm (named by itself: a hash build over stored
// tables is served from their snapshots' memos), cold (cold/<name>: Y and Z
// are reloaded with their own rows outside the timer before every execution,
// so each execution fills fresh memos, as the first one after a write does)
// and Z-cold (zcold/<name>: only Z is reloaded, so chain3 refills its build
// over the groupjoin of Y with Z while builds over Y alone stay served).
//
// ---

func BenchmarkNestedExecStatements(b *testing.B) {
	statements := []struct{ name, q string }{
		{"in", `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
		{"subseteq", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`},
		{"chain3", `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b AND y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`},
		{"count", `SELECT x FROM X x WHERE COUNT(SELECT y.a FROM Y y WHERE x.b = y.b) >= 2`},
		{"selnest", `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.b) FROM X x`},
		{"flat", `SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`},
	}
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994,
	})
	eng := tmdb.New(cat, db)
	eng.Analyze()
	y, _ := db.Table("Y")
	z, _ := db.Table("Z")
	for _, v := range []struct {
		prefix string
		reload []*storage.Table
	}{{"", nil}, {"cold/", []*storage.Table{y, z}}, {"zcold/", []*storage.Table{z}}} {
		for _, st := range statements {
			p, err := eng.Prepare(st.q)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(v.prefix+st.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if v.reload != nil {
						b.StopTimer()
						for _, t := range v.reload {
							if err := t.Load(t.AsSet().Elems()); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					if _, err := p.Query(tmdb.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Block shapes: the three SELECT-FROM-WHERE shapes the block builder
// unnests — FROM-clause subqueries, a two-table FROM with a correlated
// subquery, a multi-FROM inner block — each paired with a hand-flattened
// form that answers the same question, as prepared statements on
// nested_exec's dataset. Each shape should run within 10× of its form:
//
//	go test -run=NONE -bench=BlockShapes -benchmem -cpu 2 .
//
// ---

func BenchmarkBlockShapes(b *testing.B) {
	pairs := []struct{ name, shape, flat string }{
		{"from_subqueries",
			`SELECT x FROM (SELECT x FROM X x WHERE x.b < 250) x, (SELECT y FROM Y y WHERE y.a < 3) y WHERE x.b = y.d`,
			`SELECT x FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`},
		{"multi_from_correlated",
			`SELECT x FROM X x, Y y WHERE x.b = y.d AND x.a SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
			`SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT z.c FROM Z z WHERE x.b = z.d) AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`},
		{"multi_from_inner",
			`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y, Z z WHERE y.d = z.d AND x.b = y.b`,
			`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.b AND y.d IN SELECT z.d FROM Z z WHERE y.d = z.d`},
	}
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994,
	})
	eng := tmdb.New(cat, db)
	eng.Analyze()
	for _, pr := range pairs {
		for _, form := range []struct{ name, q string }{{"shape", pr.shape}, {"flat", pr.flat}} {
			p, err := eng.Prepare(form.q)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(pr.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Query(tmdb.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- B11: a single-row write costs what it changes. One insert plus one
// predicate delete of that row on the repo benchmark's indexed dataset
// (XYZ{2000, 6000, 4000}, indexes X(b), Y(d), Y(b,d)) — the mixed_rw write
// path at the engine boundary, timed as two sub-benchmarks so each write can
// be attributed: insert times the insert (its delete runs outside the timer)
// and delete the delete (its insert runs outside the timer). The inserted
// row lies past Y's last row, so it starts a one-row chunk of its own (Y's
// last loaded chunk is more than half full) and the delete drops that chunk
// again: each write copies Y's chunk directory and no loaded chunk, no sort,
// no statistics rescan, no plan-cache sweep. The delete's victim query, SELECT y FROM Y y WHERE
// y.a = k, reads only the run of Y's chunks whose leading label a equals k
// (a binary search, no index), collects it without a sort, and is a
// plan-cache hit after the first delete since every y.a = k has one shape.
//
//	go test -run=NONE -bench=B11 -benchmem -benchtime 2000x .
//
// ---

func BenchmarkB11SingleRowWrite(b *testing.B) {
	eng := xyzEngine(2000, 6000, 4000) // Keys 500, dangling 0.25: the repo benchmark's shape
	for _, ix := range [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}} {
		if err := eng.CreateIndex(ix[0], ix[1:]...); err != nil {
			b.Fatal(err)
		}
	}
	next := int64(1_000_000)
	insert := func(b *testing.B, a int64) {
		if added, err := eng.InsertValue("Y", datagen.YRow(a, 1, 1, 2)); err != nil || !added {
			b.Fatalf("insert: added=%v err=%v", added, err)
		}
	}
	del := func(b *testing.B, a int64) {
		if n, err := eng.Delete("Y", "y", fmt.Sprintf("y.a = %d", a)); err != nil || n != 1 {
			b.Fatalf("delete: n=%d err=%v", n, err)
		}
	}
	for _, write := range []string{"insert", "delete"} {
		b.Run(write, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := next
				next++
				if write == "delete" {
					b.StopTimer()
				}
				insert(b, a)
				if write == "insert" {
					b.StopTimer()
				} else {
					b.StartTimer()
				}
				del(b, a)
				if write == "insert" {
					b.StartTimer()
				}
			}
		})
	}
}

// --- Per-request garbage on the server-bound workloads: point lookups
// through a loopback tmdb.Server and tmdb.Client on the repo benchmark's
// indexed dataset (XYZ{2000, 6000, 4000}, seed 1994, indexes X(b), Y(d),
// Y(b,d)). "prepared" alternates the prepared point_x and point_y statements
// (plan-cache hits: HTTP, JSON, admission); "adhoc" cycles point_x, point_y
// and semi_pt as never-repeating text (every request also parses and binds,
// then hits the plan of its shape: the extra negative constant is a
// parameter like any other). B/op here is what sets point_wire's and adhoc_plan's GC cadence,
// and with it their p95: the smaller the live heap, the more collections the
// same garbage costs. Client and server share the process, so both halves of
// the wire count. Profile the allocation sites with:
//
//	go test -run=NONE -bench=ServerPointRequest -benchmem -cpu 2 \
//	    -memprofile mem.out -memprofilerate 1 -outputdir <dir>
//
// ---

func BenchmarkServerPointRequest(b *testing.B) {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1994,
	})
	eng := tmdb.New(cat, db)
	for _, ix := range [][]string{{"X", "b"}, {"Y", "d"}, {"Y", "b", "d"}} {
		if err := eng.CreateIndex(ix[0], ix[1:]...); err != nil {
			b.Fatal(err)
		}
	}
	eng.Analyze()
	ys, _ := eng.DB().Table("Y")
	var pointY string
	for _, row := range ys.Rows() {
		if d := row.MustGet("d").AsInt(); d >= 0 { // dangling rows carry negative keys
			pointY = fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, row.MustGet("b").AsInt(), d)
			break
		}
	}
	const pointX = `SELECT x FROM X x WHERE x.b = 17`
	const semiSub = ` AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`

	hs := httptest.NewServer(tmdb.NewServer(eng, tmdb.ServerConfig{}))
	defer hs.Close()
	c := tmdb.NewServerClient(hs.URL)
	if _, err := c.NewSession(tmdb.WireOptions{}); err != nil {
		b.Fatal(err)
	}
	for name, q := range map[string]string{"point_x": pointX, "point_y": pointY} {
		if _, err := c.Prepare(name, q); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("prepared", func(b *testing.B) {
		names := []string{"point_x", "point_y"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Execute(names[i%2], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adhoc", func(b *testing.B) {
		// An extra conjunct excluding a literal no row holds keeps every text
		// new while the answer stays the statement's.
		texts := []string{
			pointX + ` AND x.b <> %d`,
			pointY + ` AND y.a <> %d`,
			pointX + ` AND x.b <> %d` + semiSub,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Query(fmt.Sprintf(texts[i%3], -1-i), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
