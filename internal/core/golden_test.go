package core

import (
	"strings"
	"testing"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
)

// Golden plan snapshots: the exact operator trees the translator emits for
// the paper's canonical queries. Fresh-name counters are deterministic per
// Translator, so the snapshots are stable; if the translation strategy
// changes these tests make the new shape reviewable.
func TestGoldenPlans(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "IN-semijoin",
			src:  `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
			want: `Map[x](x)
  SemiJoin[x.b = y.d](x, y)
    Scan(X)
    Scan(Y)
`,
		},
		{
			name: "NOTIN-antijoin",
			src:  `SELECT x FROM X x WHERE x.b NOT IN SELECT y.d FROM Y y WHERE x.b = y.d`,
			want: `Map[x](x)
  AntiJoin[x.b = y.d](x, y)
    Scan(X)
    Scan(Y)
`,
		},
		{
			name: "SUBSETEQ-nestjoin",
			src:  `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
			want: `Map[x](x)
  Map[(a = x.a, b = x.b)](x)
    Select[x.a SUBSETEQ x.nj_2](x)
      NestJoin[x.b = y.b; y.a; nj_2](x, y)
        Scan(X)
        Scan(Y)
`,
		},
		{
			name: "section8",
			src:  section8Query,
			want: `Map[x](x)
  Map[(a = x.a, b = x.b)](x)
    Select[x.a SUBSETEQ x.nj_4](x)
      NestJoin[x.b = y.b; y.a; nj_4](x, y)
        Scan(X)
        Map[(a = y.a, b = y.b, c = y.c, d = y.d)](y)
          Select[y.c SUBSETEQ y.nj_2](y)
            NestJoin[y.d = z.d; z.c; nj_2](y, z)
              Scan(Y)
              Scan(Z)
`,
		},
		{
			name: "section8-flat",
			src:  section8FlatVariant,
			want: `Map[x](x)
  SemiJoin[x.b = y.b AND y.a = x.b](x, y)
    Scan(X)
    AntiJoin[y.d = z.d AND z.c = y.a](y, z)
      Scan(Y)
      Scan(Z)
`,
		},
		{
			name: "select-clause-nesting",
			src:  `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`,
			want: `Map[(b = x.b, ys = x.nj_1)](x)
  NestJoin[x.b = y.d; y.a; nj_1](x, y)
    Scan(X)
    Scan(Y)
`,
		},
	}
	cat, _ := datagen.XYZ(datagen.DefaultSpec())
	for _, c := range cases {
		plan := planFor(t, cat, c.src, StrategyNestJoin)
		got := algebra.Explain(plan)
		if got != c.want {
			t.Errorf("%s plan drifted:\n--- got ---\n%s--- want ---\n%s", c.name, got, c.want)
		}
	}
}

// TestGoldenKimPlan documents Kim's group-then-join shape: distinct keys,
// grouping nest join, then the regular (bug-carrying) join.
func TestGoldenKimPlan(t *testing.T) {
	cat, _ := datagen.RS(10, 10, 3, 0.3, 1)
	plan := planFor(t, cat,
		`SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`,
		StrategyKim)
	got := algebra.Explain(plan)
	for _, frag := range []string{"Join[", "NestJoin[", "Map[(k_"} {
		if !strings.Contains(got, frag) {
			t.Errorf("Kim plan missing %q:\n%s", frag, got)
		}
	}
	ops := algebra.CountOps(plan)
	if ops["Join"] != 1 || ops["NestJoin"] != 1 {
		t.Errorf("Kim shape: %v\n%s", ops, got)
	}
}

// TestGoldenOuterJoinPlan documents the relational repair's shape:
// outerjoin, ν*, selection, projection.
func TestGoldenOuterJoinPlan(t *testing.T) {
	cat, _ := datagen.RS(10, 10, 3, 0.3, 1)
	plan := planFor(t, cat,
		`SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`,
		StrategyOuterJoin)
	got := algebra.Explain(plan)
	for _, frag := range []string{"OuterJoin[", "Nest*["} {
		if !strings.Contains(got, frag) {
			t.Errorf("outerjoin plan missing %q:\n%s", frag, got)
		}
	}
	ops := algebra.CountOps(plan)
	if ops["OuterJoin"] != 1 || ops["Nest*"] != 1 {
		t.Errorf("outerjoin shape: %v\n%s", ops, got)
	}
}
