package planner

import (
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/exec"
	"tmdb/internal/schema"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
	"tmdb/internal/value"
)

// indexEnv builds the XYZ workload with a persistent index on Z.d and
// returns the estimator, plan builder, and database.
func indexEnv(t *testing.T) (*Estimator, *algebra.Builder, *storage.DB, *schema.Catalog) {
	t.Helper()
	cat, db := datagen.XYZ(datagen.Spec{
		NX: 100, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 4,
	})
	if err := db.CreateIndex("Z", "d"); err != nil {
		t.Fatal(err)
	}
	return NewEstimatorStats(stats.New(db)), algebra.NewBuilder(cat), db, cat
}

// TestFindIndexProbeShapes pins the shape test: a direct scan with an
// indexed equi-key attribute is probeable, wrapped or unindexed shapes are
// not, and extra equi-key pairs are skipped over to find the covered one.
func TestFindIndexProbeShapes(t *testing.T) {
	est, b, _, _ := indexEnv(t)
	z, _ := b.Scan("Z")
	x, _ := b.Scan("X")
	j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
	probe := func(j *algebra.Join) (IndexProbe, bool) {
		op := resolve(j, PhysicalSpec{Joins: ImplIndex}, est.stats.Indexes).join
		if op.probe == nil {
			return IndexProbe{}, false
		}
		return *op.probe, true
	}
	pr, ok := probe(j)
	if !ok || pr.Table != "Z" || pr.Name() != "d" || pr.Depth != 1 || len(pr.Pairs) != 1 || pr.Pairs[0] != 0 {
		t.Fatalf("probe = %+v, %v", pr, ok)
	}
	// Unindexed attribute: no probe.
	j2, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.c"))
	if _, ok := probe(j2); ok {
		t.Error("unindexed attribute reported a probe")
	}
	// Multi-pair predicate: the covered pair is found even when it is not
	// first, and the resolved tree sees it.
	j3, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.c AND x.b = z.d"))
	pr3, ok := probe(j3)
	if !ok || len(pr3.Pairs) != 1 || pr3.Pairs[0] != 1 {
		t.Errorf("multi-pair probe = %+v, %v (want pair 1)", pr3, ok)
	}
	probes := func(p algebra.Plan) bool { return est.Resolve(p, PhysicalSpec{Joins: ImplIndex}).probes }
	if !probes(j3) || probes(j2) {
		t.Error("the resolved tree's index probes disagree with the resolver")
	}
	// A filtered (non-scan) right operand is not probeable.
	zf, _ := b.Select(z, "z", tmql.MustParse("z.c = 1"))
	j4, _ := b.Join(algebra.JoinSemi, x, zf, "x", "z", tmql.MustParse("x.b = z.d"))
	if _, ok := probe(j4); ok {
		t.Error("filtered right operand reported a probe")
	}
}

// TestCompileIndexJoinExecutes compiles the idxjoin family and checks the
// operators produce exactly the hash family's results — with the fallback
// engaging on the non-indexable operator.
func TestCompileIndexJoinExecutes(t *testing.T) {
	_, b, db, _ := indexEnv(t)
	x, _ := b.Scan("X")
	z, _ := b.Scan("Z")
	for _, tc := range []struct {
		name string
		mk   func() algebra.Plan
	}{
		{"semi", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"anti", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinAnti, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"inner", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinInner, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"outer", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinLeftOuter, x, z, "x", "z", tmql.MustParse("x.b = z.d"))
			return j
		}},
		{"nest", func() algebra.Plan {
			j, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d"), nil, "s")
			return j
		}},
		{"nest-residual", func() algebra.Plan {
			j, _ := b.NestJoin(x, z, "x", "z", tmql.MustParse("x.b = z.d AND z.c > 1"), nil, "s")
			return j
		}},
		{"fallback-no-index", func() algebra.Plan {
			j, _ := b.Join(algebra.JoinSemi, x, z, "x", "z", tmql.MustParse("x.b = z.c"))
			return j
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.mk()
			run := func(impl JoinImpl) value.Value {
				tree, _, err := compilePlan(exec.NewCtx(db), PhysicalSpec{Joins: impl}, plan)
				if err != nil {
					t.Fatal(err)
				}
				v, err := exec.CollectBatches(tree)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			idx, hash := run(ImplIndex), run(ImplHash)
			if value.Key(idx) != value.Key(hash) {
				t.Errorf("idxjoin result not byte-identical to hash (idx %d rows, hash %d rows)",
					idx.Len(), hash.Len())
			}
		})
	}
}
