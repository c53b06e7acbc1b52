// Package enginetest is an engine-level conformance harness in the style of
// go-mysql-server's enginetest: a table of golden queries, each executed
// under every unnesting strategy × physical join implementation, asserting
// that all combinations return identical results. Results are sets with a
// canonical element order (exec.Collect builds them through the value
// package's canonicalizing set builder), so plain value.Equal is the
// order-normalized comparison.
//
// Two classes of combination legitimately deviate:
//
//   - Kim's transformation loses dangling tuples by design (the COUNT bug
//     the paper reproduces); queries whose data contains dangling outer
//     tuples mark KimBuggy and tolerate — but do not require — a mismatch.
//   - The hash and sort-merge families need an extractable equi-key; on
//     plans without one the planner refuses with a "no equi-key" error,
//     which the harness records as a skip, not a failure.
package enginetest

import (
	"strings"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
)

// Golden is one conformance query.
type Golden struct {
	Name  string
	DB    string // sample database: table1 | xyz | rs | company
	Query string
	// KimBuggy marks queries over data with dangling outer tuples, where
	// Kim's group-then-join transformation is allowed to lose tuples.
	KimBuggy bool
}

// Goldens is the conformance table. Keep queries deterministic and small:
// every entry runs under |Strategies| × |JoinImpls| combinations.
var Goldens = []Golden{
	{
		Name:  "single-block-select",
		DB:    "table1",
		Query: `SELECT x.e FROM X x WHERE x.d = 1`,
	},
	{
		Name:  "nest-equijoin-table1",
		DB:    "table1",
		Query: `SELECT (e = x.e, d = x.d, s = SELECT y FROM Y y WHERE x.d = y.b) FROM X x`,
	},
	{
		Name:     "in-subquery-semijoin",
		DB:       "xyz",
		Query:    `SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`,
		KimBuggy: true,
	},
	{
		Name:     "not-in-antijoin",
		DB:       "xyz",
		Query:    `SELECT x FROM X x WHERE x.b NOT IN SELECT y.d FROM Y y WHERE x.b = y.d`,
		KimBuggy: true,
	},
	{
		Name:     "subseteq-nest-join",
		DB:       "xyz",
		Query:    `SELECT x FROM X x WHERE x.a SUBSETEQ SELECT y.a FROM Y y WHERE x.b = y.b`,
		KimBuggy: true,
	},
	{
		Name:     "count-between-blocks",
		DB:       "rs",
		Query:    `SELECT r FROM R r WHERE r.B = COUNT(SELECT s.D FROM S s WHERE r.C = s.C)`,
		KimBuggy: true,
	},
	{
		Name: "three-block-chain",
		DB:   "xyz",
		Query: `SELECT x FROM X x
 WHERE x.a SUBSETEQ
   SELECT y.a FROM Y y
   WHERE x.b = y.b AND
     y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
		KimBuggy: true,
	},
	{
		Name:     "select-clause-nesting",
		DB:       "xyz",
		Query:    `SELECT (b = x.b, ys = SELECT y.a FROM Y y WHERE x.b = y.d) FROM X x`,
		KimBuggy: true,
	},
	{
		Name:     "unnest-collapse",
		DB:       "xyz",
		Query:    `UNNEST(SELECT (SELECT (a = x.b, b = y.a) FROM Y y WHERE x.b = y.d) FROM X x)`,
		KimBuggy: true,
	},
	{
		Name:  "flat-two-table-join",
		DB:    "xyz",
		Query: `SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d`,
	},
	{
		Name:  "theta-join-no-equi-key",
		DB:    "table1",
		Query: `SELECT (e = x.e, a = y.a) FROM X x, Y y WHERE x.d < y.b`,
	},
	{
		Name:  "exists-over-set-attribute",
		DB:    "company",
		Query: `SELECT d.name FROM DEPT d WHERE EXISTS e IN d.emps (e.sal > 3500)`,
	},
	{
		Name:     "count-per-group-company",
		DB:       "company",
		Query:    `SELECT (d = d.name, n = COUNT(SELECT e FROM EMP e WHERE e.address.city = d.address.city)) FROM DEPT d`,
		KimBuggy: true,
	},
	{
		Name:  "quantified-forall",
		DB:    "company",
		Query: `SELECT d.name FROM DEPT d WHERE FORALL e IN d.emps (e.sal > 1000)`,
	},
	{
		// The unified optimizer's flagship: the grouping conjunct first and
		// the plain restriction second puts a selection above the nest-join
		// projection, so the §6 pushdown rewrite is a strictly cheaper peer
		// candidate the pre-unified engine could never consider.
		Name:     "rewrite-pushdown-wins",
		DB:       "xyz",
		Query:    `SELECT x.b FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b) AND x.b < 0`,
		KimBuggy: true,
	},
	{
		// Three-source flat block: the join-order search contributes
		// reordered bushy/left-deep alternatives.
		Name:  "three-table-join-order",
		DB:    "xyz",
		Query: `SELECT (xb = x.b, zc = z.c) FROM X x, Y y, Z z WHERE x.b = y.d AND y.b = z.d`,
	},
	{
		// Single-table equality selection: with an index on X.b registered
		// (see AccessIndexes) the idxscan access path serves it; without one
		// it is a plain filtered scan. Either way every combination must
		// agree with the oracle.
		Name:  "indexable-selection",
		DB:    "xyz",
		Query: `SELECT x FROM X x WHERE x.b = 3`,
	},
	{
		// Multi-attribute equality conjunction: the composite index Y(b,d)
		// covers both conjuncts, so the idxscan path probes one composite
		// point with no residual.
		Name:  "composite-indexable-selection",
		DB:    "xyz",
		Query: `SELECT y.a FROM Y y WHERE y.b = 3 AND y.d = 2`,
	},
	{
		// The repo benchmark's nested_exec "flat" statement: single-table
		// restrictions on both sides of an equi-join, the pipeline the batch
		// operators serve.
		Name:  "filtered-flat-join",
		DB:    "xyz",
		Query: `SELECT x.b FROM X x, Y y WHERE x.b = y.d AND y.a < 3 AND x.b < 250`,
	},
}

// AccessIndexSpec names one persistent index to register: a table and its
// ordered attribute list (one attribute = equi-key index, several =
// composite).
type AccessIndexSpec struct {
	Table string
	Attrs []string
}

// AccessIndexes lists, per sample database, the persistent indexes the
// access-path conformance tests register before pinning the idxscan path:
// single-attribute and composite, covering the goldens' selection and join
// attributes.
var AccessIndexes = map[string][]AccessIndexSpec{
	"xyz": {
		{Table: "X", Attrs: []string{"b"}},
		{Table: "Y", Attrs: []string{"b", "d"}},
		{Table: "Y", Attrs: []string{"d"}},
	},
	"table1": {
		{Table: "X", Attrs: []string{"d"}},
		{Table: "Y", Attrs: []string{"b"}},
	},
	"rs": {
		{Table: "S", Attrs: []string{"C"}},
	},
}

// Strategies returns every strategy the harness exercises, including the
// cost-based auto path.
func Strategies() []core.Strategy {
	return []core.Strategy{
		core.StrategyAuto,
		core.StrategyNaive,
		core.StrategyNestJoin,
		core.StrategyKim,
		core.StrategyOuterJoin,
	}
}

// JoinImpls returns every physical join family the harness exercises.
// ImplIndex runs everywhere: without registered indexes it is the auto
// fallback (exercising the fallback path), with them it probes persistent
// indexes — both must agree with the oracle.
func JoinImpls() []planner.JoinImpl {
	return []planner.JoinImpl{
		planner.ImplAuto,
		planner.ImplNestedLoop,
		planner.ImplHash,
		planner.ImplMerge,
		planner.ImplIndex,
	}
}

// OpenDB builds a deterministic small instance of the named sample database
// (sized for running the full conformance matrix quickly).
func OpenDB(name string) *engine.Engine {
	switch name {
	case "table1":
		cat, db := datagen.Table1()
		return engine.New(cat, db)
	case "xyz":
		cat, db := datagen.XYZ(datagen.Spec{
			NX: 30, NY: 90, NZ: 60, Keys: 8, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1,
		})
		return engine.New(cat, db)
	case "rs":
		cat, db := datagen.RS(40, 100, 8, 0.3, 1)
		return engine.New(cat, db)
	case "company":
		cat, db := datagen.Company(5, 40, 1)
		return engine.New(cat, db)
	}
	panic("enginetest: unknown sample database " + name)
}

// SkippableError reports whether err is the planner's refusal to compile a
// keyless plan under a hash/merge family — an expected infeasibility the
// conformance matrix records as a skip.
func SkippableError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no equi-key")
}
