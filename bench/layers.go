package main

// layers.go is the only file of the benchmark that reaches below the public
// tmdb package. It builds the dataset (internal/datagen) and wraps the three
// front-end calls the engine does not expose on their own — tmql.Parse,
// Binder.Bind and Translator.Translate — so the library pass of the traced run
// can time them. Everything else goes through package tmdb. The import-boundary
// test enforces both the list and the confinement to this file.

import (
	"tmdb"
	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/tmql"
)

// dataset is the datagen.Spec every workload runs on, minus the seed.
type dataset struct {
	NX           int     `json:"nx"`
	NY           int     `json:"ny"`
	NZ           int     `json:"nz"`
	Keys         int     `json:"keys"`
	DanglingFrac float64 `json:"dangling_frac"`
	SetAttrCard  int     `json:"set_attr_card"`
	SkewFrac     float64 `json:"skew_frac"`
}

// fullDataset has about 25% dangling outer tuples — the case Kim's
// transformation loses — and 12 000 rows against 2 clients.
var fullDataset = dataset{NX: 2000, NY: 6000, NZ: 4000, Keys: 500, DanglingFrac: 0.25, SetAttrCard: 3}

// scaled divides every cardinality by div, keeping fan-out (NY/Keys) and the
// dangling fraction.
func (d dataset) scaled(div int) dataset {
	d.NX, d.NY, d.NZ, d.Keys = d.NX/div, d.NY/div, d.NZ/div, d.Keys/div
	return d
}

// newEngine generates and seals the dataset and returns an engine over it.
func newEngine(d dataset, seed int64) *tmdb.Engine {
	cat, db := datagen.XYZ(datagen.Spec{
		NX: d.NX, NY: d.NY, NZ: d.NZ, Keys: d.Keys,
		DanglingFrac: d.DanglingFrac, SetAttrCard: d.SetAttrCard, SkewFrac: d.SkewFrac, Seed: seed,
	})
	return tmdb.New(cat, db)
}

// yRow builds the Y tuple mixed_rw inserts.
func yRow(a, b, c, d int64) tmdb.Value { return datagen.YRow(a, b, c, d) }

// expr is a parsed or bound query tree.
type expr = tmql.Expr

func parseQuery(src string) (expr, error) { return tmql.Parse(src) }

func bindQuery(eng *tmdb.Engine, e expr) (expr, error) {
	return tmql.NewBinder(eng.Catalog()).Bind(e)
}

// translateCandidates translates bound under every strategy the cost-based
// planner weighs, as a plan-cache miss does, and returns how many translated.
func translateCandidates(eng *tmdb.Engine, bound expr) int {
	n := 0
	for _, s := range core.CandidateStrategies() {
		if _, err := core.NewTranslator(eng.Catalog()).Translate(bound, s); err == nil {
			n++
		}
	}
	return n
}
