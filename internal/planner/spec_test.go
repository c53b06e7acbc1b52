package planner

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"tmdb/internal/algebra"
	"tmdb/internal/datagen"
	"tmdb/internal/stats"
	"tmdb/internal/storage"
	"tmdb/internal/tmql"
)

// Choose, Estimate and Explain over every physical dimension, one table
// each: a row is (environment, plan, PhysicalSpec) plus what must hold.

// specEnv is one XYZ instance with its index set and a stock of named plans.
type specEnv struct {
	est   *Estimator
	b     *algebra.Builder
	db    *storage.DB
	plans map[string]algebra.Plan
}

// specEnvs builds the environments the tables draw from:
//
//   - plain: |X|=200 |Y|=800 |Z|=400, no indexes — the scale at which hash
//     beats nested loops and batching beats rows.
//   - access: indexes X(b) and Y(b,d) for index scans.
//   - index: index Z(d) for index joins.
func specEnvs(t *testing.T) map[string]*specEnv {
	t.Helper()
	mk := func(spec datagen.Spec, indexes ...[]string) *specEnv {
		cat, db := datagen.XYZ(spec)
		for _, ix := range indexes {
			if err := db.CreateIndex(ix[0], ix[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		env := &specEnv{est: NewEstimatorStats(stats.New(db)), b: algebra.NewBuilder(cat), db: db, plans: map[string]algebra.Plan{}}
		b := env.b
		must := func(name string, p algebra.Plan, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			env.plans[name] = p
		}
		x, _ := b.Scan("X")
		y, _ := b.Scan("Y")
		z, _ := b.Scan("Z")
		env.plans["scan-x"] = x
		sel := func(name string, in algebra.Plan, v, pred string) {
			p, err := b.Select(in, v, tmql.MustParse(pred))
			must(name, p, err)
		}
		join := func(name string, kind algebra.JoinKind, r algebra.Plan, rv, pred string) {
			p, err := b.Join(kind, x, r, "x", rv, tmql.MustParse(pred))
			must(name, p, err)
		}
		nest := func(name string, r algebra.Plan, rv, pred string) {
			p, err := b.NestJoin(x, r, "x", rv, tmql.MustParse(pred), nil, "g")
			must(name, p, err)
		}
		nest("nest-xy", y, "y", "x.b = y.b")
		nest("nest-xz", z, "z", "x.b = z.d")
		join("theta-xz", algebra.JoinInner, z, "z", "x.b < z.d")
		join("inner-xz", algebra.JoinInner, z, "z", "x.b = z.d")
		join("semi-xz", algebra.JoinSemi, z, "z", "x.b = z.d")
		join("semi-xz-unindexed", algebra.JoinSemi, z, "z", "x.b = z.c")
		sel("sel-xb", x, "x", "x.b = 3")
		sel("sel-xb-one", x, "x", "x.b = 1")
		sel("sel-xb-in3", x, "x", "x.b IN {1, 2, 2, 3}")
		sel("sel-ya", y, "y", "y.a = 1")
		sel("sel-yb-residual", y, "y", "y.b = 3 AND y.a > 0")
		naive, err := b.EvalSet(tmql.MustParse("SELECT x FROM X x WHERE x.b IN SELECT y.b FROM Y y WHERE x.b = y.b"))
		must("naive-in", naive, err)
		small, err := b.EvalSet(tmql.MustParse("SELECT z FROM Z z"))
		must("naive-scan", small, err)
		return env
	}
	mid := datagen.Spec{NX: 200, NY: 800, NZ: 400, Keys: 25, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 6}
	return map[string]*specEnv{
		"plain":  mk(mid),
		"access": mk(datagen.Spec{NX: 120, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 9}, []string{"X", "b"}, []string{"Y", "b", "d"}),
		"index":  mk(datagen.Spec{NX: 100, NY: 400, NZ: 200, Keys: 20, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 4}, []string{"Z", "d"}),
	}
}

func TestChoose(t *testing.T) {
	envs := specEnvs(t)
	feasible := func(all []Candidate) (out []Candidate) {
		for _, c := range all {
			if c.Infeasible == "" {
				out = append(out, c)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name, env, plan string
		pin             PhysicalSpec
		wantErr         bool
		check           func(t *testing.T, best *Candidate, all []Candidate)
	}{
		{name: "hash wins an equi plan; three families", env: "plain", plan: "nest-xy", pin: PhysicalSpec{},
			check: func(t *testing.T, best *Candidate, all []Candidate) {
				if best.Joins != ImplHash || !best.Chosen {
					t.Errorf("best = %+v, want hash marked Chosen", best)
				}
				if len(all) != 3 {
					t.Errorf("expected 3 join-impl candidates, got %d", len(all))
				}
			}},
		{name: "pinned family is the only candidate", env: "plain", plan: "nest-xy", pin: PhysicalSpec{Joins: ImplMerge},
			check: func(t *testing.T, best *Candidate, all []Candidate) {
				if best.Joins != ImplMerge || len(all) != 1 {
					t.Errorf("fixed impl not respected: best=%s candidates=%d", best.Joins, len(all))
				}
			}},
		{name: "pinned hash on a theta join: nothing feasible", env: "plain", plan: "theta-xz", pin: PhysicalSpec{Joins: ImplHash}, wantErr: true,
			check: func(t *testing.T, _ *Candidate, all []Candidate) {
				if len(all) != 1 || all[0].Infeasible == "" {
					t.Errorf("candidates = %+v", all)
				}
			}},
		{name: "theta join falls to nested loops", env: "plain", plan: "theta-xz", pin: PhysicalSpec{},
			check: func(t *testing.T, best *Candidate, _ []Candidate) {
				if best.Joins != ImplNestedLoop {
					t.Errorf("chose %s", best.Joins)
				}
			}},
		{name: "join-free plan collapses the family dimension", env: "plain", plan: "sel-xb", pin: PhysicalSpec{},
			check: func(t *testing.T, _ *Candidate, all []Candidate) {
				if len(all) != 1 {
					t.Errorf("got %d candidates", len(all))
				}
			}},
		{name: "every family × access pair is costed once", env: "access", plan: "sel-xb", pin: PhysicalSpec{},
			check: func(t *testing.T, _ *Candidate, all []Candidate) {
				distinctSpecs(t, feasible(all))
			}},
		{name: "every family is costed once, idxjoin included", env: "index", plan: "semi-xz", pin: PhysicalSpec{},
			check: func(t *testing.T, _ *Candidate, all []Candidate) {
				if len(feasible(all)) != 3 {
					t.Errorf("want nested-loop, hash and idxjoin, got %v", all)
				}
				distinctSpecs(t, feasible(all))
			}},
		{name: "access auto enumerates idxscan where an index serves, and it wins", env: "access", plan: "sel-xb", pin: PhysicalSpec{},
			check: func(t *testing.T, best *Candidate, all []Candidate) {
				if best.Access != AccessIndex {
					t.Errorf("chose access=%s; candidates: %v", best.Access, all)
				}
				seenScan, seenIdx := false, false
				for _, c := range all {
					seenScan = seenScan || c.Access == AccessScan
					if c.Access == AccessIndex {
						seenIdx = true
						if !strings.Contains(c.String(), "+idxscan") {
							t.Errorf("idxscan candidate row lacks the access marker: %s", c)
						}
					}
				}
				if !seenScan || !seenIdx {
					t.Errorf("enumeration incomplete: scan=%v idx=%v", seenScan, seenIdx)
				}
			}},
		{name: "access collapses to scans without a matching index", env: "access", plan: "sel-ya", pin: PhysicalSpec{},
			check: func(t *testing.T, _ *Candidate, all []Candidate) {
				for _, c := range all {
					if c.Access == AccessIndex {
						t.Errorf("idxscan enumerated without a usable index: %v", c)
					}
				}
			}},
		{name: "access pin: idxscan", env: "access", plan: "sel-xb", pin: PhysicalSpec{Access: AccessIndex},
			check: func(t *testing.T, best *Candidate, _ []Candidate) {
				if best.Access != AccessIndex {
					t.Errorf("best = %+v", best)
				}
			}},
		{name: "access pin: scan", env: "access", plan: "sel-xb", pin: PhysicalSpec{Access: AccessScan},
			check: func(t *testing.T, best *Candidate, _ []Candidate) {
				if best.Access != AccessScan {
					t.Errorf("best = %+v", best)
				}
			}},
		{name: "idxjoin joins the enumeration where an index serves, and it wins", env: "index", plan: "semi-xz", pin: PhysicalSpec{},
			check: func(t *testing.T, best *Candidate, all []Candidate) {
				if best.Joins != ImplIndex {
					t.Errorf("chose %s; candidates: %v", best.Joins, all)
				}
				for _, c := range all {
					if c.Joins == ImplIndex && c.Infeasible != "" {
						t.Errorf("idxjoin candidate marked infeasible: %s", c.Infeasible)
					}
				}
			}},
		{name: "idxjoin stays out without a usable index", env: "index", plan: "semi-xz-unindexed", pin: PhysicalSpec{},
			check: func(t *testing.T, _ *Candidate, all []Candidate) {
				for _, c := range all {
					if c.Joins == ImplIndex {
						t.Errorf("idxjoin enumerated without a usable index: %v", c)
					}
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := envs[tc.env]
			best, all, err := env.est.Choose([]StrategyPlan{{Strategy: "nestjoin", Plan: env.plans[tc.plan]}}, tc.pin)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			tc.check(t, best, all)
		})
	}

	// Across strategies: naive nested-loop evaluation must cost more than
	// flattening.
	plain := envs["plain"]
	best, _, err := plain.est.Choose([]StrategyPlan{
		{Strategy: "naive", Plan: plain.plans["naive-in"]},
		{Strategy: "nestjoin", Plan: plain.plans["nest-xy"]},
	}, PhysicalSpec{})
	if err != nil || best.Strategy != "nestjoin" {
		t.Errorf("chose %+v (%v), want nestjoin", best, err)
	}
}

// distinctSpecs fails when two candidates share a strategy, alternative and
// PhysicalSpec.
func distinctSpecs(t *testing.T, cands []Candidate) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range cands {
		k := fmt.Sprintf("%s/%s/%+v", c.Strategy, c.Alt, c.PhysicalSpec)
		if seen[k] {
			t.Errorf("candidate %s costed twice", k)
		}
		seen[k] = true
	}
}

func TestEstimate(t *testing.T) {
	envs := specEnvs(t)
	hash := PhysicalSpec{Joins: ImplHash}
	for _, tc := range []struct {
		name, env, plan string
		a               PhysicalSpec
		rel             byte // Work(a) rel Work(b); Rows always equal
		b               PhysicalSpec
	}{
		{"hash < merge", "plain", "nest-xy", hash, '<', PhysicalSpec{Joins: ImplMerge}},
		{"merge < nl", "plain", "nest-xy", PhysicalSpec{Joins: ImplMerge}, '<', PhysicalSpec{Joins: ImplNestedLoop}},
		{"the zero spec is hash on an equi plan", "plain", "nest-xy", PhysicalSpec{}, '=', hash},
		{"the zero spec is nested loops on a theta plan", "plain", "theta-xz", PhysicalSpec{}, '=', PhysicalSpec{Joins: ImplNestedLoop}},
		{"idxscan < scan", "access", "sel-xb", PhysicalSpec{Access: AccessIndex}, '<', PhysicalSpec{Access: AccessScan}},
		{"idxscan without an index costs as the scan", "access", "sel-ya", PhysicalSpec{Access: AccessIndex}, '=', PhysicalSpec{Access: AccessScan}},
		{"idxjoin < hash: no right drain, no build", "index", "semi-xz", PhysicalSpec{Joins: ImplIndex}, '<', hash},
		{"index nest join < hash", "index", "nest-xz", PhysicalSpec{Joins: ImplIndex}, '<', hash},
		{"idxjoin without an index costs as its auto fallback", "index", "semi-xz-unindexed", PhysicalSpec{Joins: ImplIndex}, '=', hash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := envs[tc.env]
			a, b := env.est.Estimate(env.plans[tc.plan], tc.a), env.est.Estimate(env.plans[tc.plan], tc.b)
			if a.Rows != b.Rows {
				t.Errorf("the physical spec must not change cardinality estimates: %v vs %v", a, b)
			}
			if (tc.rel == '<' && !(a.Work < b.Work)) || (tc.rel == '>' && !(a.Work > b.Work)) || (tc.rel == '=' && a.Work != b.Work) {
				t.Errorf("work %v, want %c %v", a.Work, tc.rel, b.Work)
			}
		})
	}

	// Multi-point scans cost one probe per point.
	acc := envs["access"]
	idx := PhysicalSpec{Access: AccessIndex}
	if three, one := acc.est.Estimate(acc.plans["sel-xb-in3"], idx), acc.est.Estimate(acc.plans["sel-xb-one"], idx); three.Work != 3*one.Work {
		t.Errorf("3-point probe work %v, want 3× single-point %v", three.Work, one.Work)
	}
	// Naive evaluation: a correlated nested query reflects the |X|·|Y| blowup.
	plain := envs["plain"]
	cs, cn := plain.est.Estimate(plain.plans["naive-scan"], PhysicalSpec{}), plain.est.Estimate(plain.plans["naive-in"], PhysicalSpec{})
	if cs.Work >= cn.Work || cn.Work < 100*400 {
		t.Errorf("correlated nested query must cost more: flat=%v nested=%v", cs, cn)
	}
}

func TestExplain(t *testing.T) {
	envs := specEnvs(t)
	for _, tc := range []struct {
		name, env, plan string
		spec            PhysicalSpec
		want, absent    []string
	}{
		{"hash", "plain", "nest-xy", PhysicalSpec{Joins: ImplHash}, []string{"HashNestJoin", "rows≈"}, nil},
		{"nl", "plain", "nest-xy", PhysicalSpec{Joins: ImplNestedLoop}, []string{"NLNestJoin"}, nil},
		{"merge", "plain", "nest-xy", PhysicalSpec{Joins: ImplMerge}, []string{"MergeNestJoin"}, nil},
		{"flat joins have no merge variant: the hash lowering", "plain", "semi-xz", PhysicalSpec{Joins: ImplMerge}, []string{"HashSemiJoin"}, nil},
		{"flat nested loops", "plain", "semi-xz", PhysicalSpec{Joins: ImplNestedLoop}, []string{"NLSemiJoin"}, nil},
		{"inputs indented under their operator", "plain", "nest-xy", PhysicalSpec{Joins: ImplHash}, []string{"\n  Scan(X)  (rows≈", "\n  Scan(Y)  (rows≈"}, nil},
		{"operators carry no batch annotation", "plain", "nest-xz", PhysicalSpec{Joins: ImplHash}, []string{"HashNestJoin[", "Scan(X)  ("}, []string{"[batch"}},
		{"idxscan", "access", "sel-yb-residual", PhysicalSpec{Access: AccessIndex}, []string{"IndexScan(Y) using Y(b,d) prefix=1", "residual["}, nil},
		{"scan path renders no IndexScan", "access", "sel-yb-residual", PhysicalSpec{Access: AccessScan}, nil, []string{"IndexScan"}},
		{"multi-point idxscan", "access", "sel-xb-in3", PhysicalSpec{Access: AccessIndex}, []string{"points=3"}, nil},
		{"idxjoin", "index", "semi-xz", PhysicalSpec{Joins: ImplIndex}, []string{"IdxSemiJoin", "using Z(d)"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := envs[tc.env]
			out := env.est.Explain(env.plans[tc.plan], tc.spec)
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("missing %q:\n%s", w, out)
				}
			}
			for _, a := range tc.absent {
				if strings.Contains(out, a) {
					t.Errorf("unexpected %q:\n%s", a, out)
				}
			}
		})
	}
}

// TestCandidateSize: Choose appends every candidate to one slice, and at 17
// candidates (an indexed point query) a 120-byte Candidate needs a 4 KiB
// backing array where a 112-byte one fits 2 KiB — 4% of adhoc_plan's
// alloc_kb_per_op. Keep new fields out of Candidate, or pack them.
func TestCandidateSize(t *testing.T) {
	if size := unsafe.Sizeof(Candidate{}); size > 112 {
		t.Errorf("Candidate is %d bytes, want <= 112", size)
	}
}

func TestCandidateString(t *testing.T) {
	for _, tc := range []struct {
		spec         PhysicalSpec
		want, absent string
	}{
		{PhysicalSpec{Joins: ImplHash}, "hash", "+"},
		{PhysicalSpec{Joins: ImplNestedLoop, Access: AccessIndex}, "nested-loop+idxscan", "hash"},
		{PhysicalSpec{Joins: ImplHash, Access: AccessIndex}, "hash+idxscan", "+b"},
	} {
		s := Candidate{Strategy: "nestjoin", PhysicalSpec: tc.spec, Cost: Cost{Work: 123}}.String()
		if !strings.Contains(s, tc.want) || strings.Contains(s, tc.absent) {
			t.Errorf("candidate rendering = %q, want %q without %q", s, tc.want, tc.absent)
		}
	}
}

func TestImplInfeasible(t *testing.T) {
	plain := specEnvs(t)["plain"]
	theta, equi := plain.plans["theta-xz"], plain.plans["nest-xy"]
	if r := ImplInfeasible(theta, ImplHash); !strings.Contains(r, "no equi-key") {
		t.Errorf("ImplInfeasible(theta, hash) = %q", r)
	}
	if r := ImplInfeasible(theta, ImplNestedLoop); r != "" {
		t.Errorf("nested loop always feasible, got %q", r)
	}
	if r := ImplInfeasible(equi, ImplMerge); r != "" {
		t.Errorf("equi plan feasible under merge, got %q", r)
	}
}
