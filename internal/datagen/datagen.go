// Package datagen builds the databases used by examples, tests, and the
// benchmark harness: the paper's company schema (§3.2) with deterministic
// synthetic instances, the X/Y/Z relations of the paper's running examples
// (§4, §6, §8), and parameterized generators with controllable cardinality,
// fan-out (matches per outer tuple), and dangling fraction (outer tuples with
// no match — the tuples that trigger the COUNT/SUBSETEQ bugs).
package datagen

import (
	"fmt"
	"math/rand"

	"tmdb/internal/schema"
	"tmdb/internal/storage"
	"tmdb/internal/types"
	"tmdb/internal/value"
)

// Company populates the paper's §3.2 schema with a small deterministic
// instance: nDept departments and nEmp employees spread over a handful of
// streets and cities so that Q1 and Q2 have non-trivial answers.
func Company(nDept, nEmp int, seed int64) (*schema.Catalog, *storage.DB) {
	cat := schema.Company()
	db := storage.NewDB()
	r := rand.New(rand.NewSource(seed))

	streets := []string{"Main St", "Oak Ave", "Campus Rd", "Mill Ln", "High St"}
	cities := []string{"Enschede", "Hengelo", "Almelo", "Zwolle"}

	empElem, err := cat.ElementType("EMP")
	if err != nil {
		panic(err)
	}
	deptElem, err := cat.ElementType("DEPT")
	if err != nil {
		panic(err)
	}

	emps := make([]value.Value, nEmp)
	for i := 0; i < nEmp; i++ {
		nkids := r.Intn(3)
		kids := make([]value.Value, nkids)
		for k := range kids {
			kids[k] = value.TupleOf(
				value.F("name", value.Str(fmt.Sprintf("kid%d_%d", i, k))),
				value.F("age", value.Int(int64(r.Intn(20)))),
			)
		}
		e := value.TupleOf(
			value.F("name", value.Str(fmt.Sprintf("emp%d", i))),
			value.F("address", address(streets[r.Intn(len(streets))], i, cities[r.Intn(len(cities))])),
			value.F("sal", value.Int(int64(2000+100*r.Intn(40)))),
			value.F("children", value.SetOf(kids...)),
		)
		emps[i] = e
	}

	depts := make([]value.Value, nDept)
	for i := 0; i < nDept; i++ {
		var members []value.Value
		for j := 0; j < nEmp; j++ {
			if r.Intn(nDept) == i%nDept {
				members = append(members, emps[j])
			}
		}
		depts[i] = value.TupleOf(
			value.F("name", value.Str(fmt.Sprintf("dept%d", i))),
			value.F("address", address(streets[r.Intn(len(streets))], 100+i, cities[r.Intn(len(cities))])),
			value.F("emps", value.SetOf(members...)),
		)
	}
	load(db, "EMP", empElem, emps)
	load(db, "DEPT", deptElem, depts)
	return cat, db
}

func address(street string, nr int, city string) value.Value {
	return value.TupleOf(
		value.F("street", value.Str(street)),
		value.F("nr", value.Str(fmt.Sprintf("%d", nr))),
		value.F("city", value.Str(city)),
	)
}

// Table1 builds the exact X and Y relations of the paper's Table 1:
//
//	X(e, d) = {(1,1), (2,1), (3,3)}      Y(a, b) = {(1,1), (2,1), (3,3)}
//
// The nest equijoin of X and Y on the second attribute must produce
//
//	(1,1,{(1,1),(2,1)}), (2,1,{(1,1),(2,1)}), (3,3,{(3,3)})
//
// — except that the paper's printed table shows row 2 with the empty set,
// because in the paper's layout X's second row is (2, 2) (the OCR of the
// table collapses the column; (2,2) is the only reading consistent with the
// stated result). We follow the semantics: X = {(1,1),(2,2),(3,3)},
// Y = {(1,1),(2,1),(3,3)}, nest join on x.d = y.b gives rows 1 and 3 matched
// and row 2 dangling with ∅.
func Table1() (*schema.Catalog, *storage.DB) {
	cat := schema.NewCatalog()
	xT := types.Tuple(types.F("e", types.Int), types.F("d", types.Int))
	yT := types.Tuple(types.F("a", types.Int), types.F("b", types.Int))
	must(cat.AddClass("XRow", "X", xT))
	must(cat.AddClass("YRow", "Y", yT))
	db := storage.NewDB()
	var xs, ys []value.Value
	for _, r := range [][2]int64{{1, 1}, {2, 2}, {3, 3}} {
		xs = append(xs, value.TupleOf(value.F("e", value.Int(r[0])), value.F("d", value.Int(r[1]))))
	}
	for _, r := range [][2]int64{{1, 1}, {2, 1}, {3, 3}} {
		ys = append(ys, value.TupleOf(value.F("a", value.Int(r[0])), value.F("b", value.Int(r[1]))))
	}
	load(db, "X", xT, xs)
	load(db, "Y", yT, ys)
	return cat, db
}

// Spec parameterizes the synthetic X/Y/Z workloads of the paper's running
// examples: relation sizes, join-key domain (controls fan-out), the fraction
// of dangling outer tuples, and the cardinality of set-valued attributes.
type Spec struct {
	NX, NY, NZ int
	// Keys is the number of distinct join-key values among matched tuples.
	// Average fan-out of Y per X is NY/Keys.
	Keys int
	// DanglingFrac in [0,1) is the fraction of X tuples whose key matches no
	// Y tuple (and of Y tuples matching no Z tuple).
	DanglingFrac float64
	// SetAttrCard is the cardinality of the set-valued attributes x.a, y.c.
	SetAttrCard int
	// SkewFrac in [0,1) is the fraction of matched join keys collapsed onto
	// key 0: with SkewFrac = 0.9, ~90% of the matched rows in every relation
	// share one key, so one hash bucket carries almost all the join work.
	// Zero (the default) leaves the uniform key draw untouched,
	// byte-for-byte.
	SkewFrac float64
	Seed     int64
}

// DefaultSpec returns a small spec suitable for tests.
func DefaultSpec() Spec {
	return Spec{NX: 40, NY: 120, NZ: 90, Keys: 12, DanglingFrac: 0.25, SetAttrCard: 3, Seed: 1}
}

// XYZTypes returns the element types of the synthetic relations:
//
//	X(a : P INT, b : INT)          — outer relation of §4's SUBSETEQ example
//	Y(a : INT, b : INT, c : P INT, d : INT)
//	Z(c : INT, d : INT)
//
// matching the §8 three-block query's attribute usage.
func XYZTypes() (x, y, z *types.Type) {
	x = types.Tuple(types.F("a", types.SetOf(types.Int)), types.F("b", types.Int))
	y = types.Tuple(
		types.F("a", types.Int), types.F("b", types.Int),
		types.F("c", types.SetOf(types.Int)), types.F("d", types.Int),
	)
	z = types.Tuple(types.F("c", types.Int), types.F("d", types.Int))
	return
}

// YRow builds one Y tuple (see XYZTypes) — the shape mutation tests and
// benchmarks insert into Y tables.
func YRow(a, b, c, d int64) value.Value {
	return value.TupleOf(
		value.F("a", value.Int(a)), value.F("b", value.Int(b)),
		value.F("c", value.SetOf(value.Int(c))), value.F("d", value.Int(d)),
	)
}

// XYZ builds the synthetic database. Keys are integers; a dangling X tuple
// gets a key from a disjoint negative range so it matches nothing.
func XYZ(spec Spec) (*schema.Catalog, *storage.DB) {
	if spec.Keys <= 0 {
		spec.Keys = 1
	}
	r := rand.New(rand.NewSource(spec.Seed))
	xT, yT, zT := XYZTypes()
	cat := schema.NewCatalog()
	must(cat.AddClass("XRow", "X", xT))
	must(cat.AddClass("YRow", "Y", yT))
	must(cat.AddClass("ZRow", "Z", zT))
	db := storage.NewDB()
	xs, ys, zs := make([]value.Value, spec.NX), make([]value.Value, spec.NY), make([]value.Value, spec.NZ)

	intSet := func(card int) value.Value {
		es := make([]value.Value, card)
		for i := range es {
			es[i] = value.Int(int64(r.Intn(2 * max(1, card))))
		}
		return value.SetOf(es...)
	}
	// matchedKey draws a join key for a matched tuple. SkewFrac collapses
	// that fraction of draws onto key 0; the guard keeps the random sequence
	// untouched byte-for-byte when skew is off, so existing seeded datasets
	// are unchanged.
	matchedKey := func() int64 {
		if spec.SkewFrac > 0 && r.Float64() < spec.SkewFrac {
			return 0
		}
		return int64(r.Intn(spec.Keys))
	}
	// Dangling tuples draw from per-relation disjoint negative ranges so a
	// dangling key never matches anything — in particular a dangling X tuple
	// must not accidentally pair with a dangling Y tuple on x.b = y.d.
	key := func(i, n int, offset int64) int64 {
		if float64(i) < spec.DanglingFrac*float64(n) {
			return -offset - int64(i) - 1
		}
		return matchedKey()
	}

	for i := 0; i < spec.NX; i++ {
		xs[i] = value.TupleOf(
			value.F("a", intSet(r.Intn(spec.SetAttrCard+1))),
			value.F("b", value.Int(key(i, spec.NX, 0))),
		)
	}
	for i := 0; i < spec.NY; i++ {
		ys[i] = value.TupleOf(
			value.F("a", value.Int(int64(r.Intn(2*max(1, spec.SetAttrCard))))),
			value.F("b", value.Int(matchedKey())),
			value.F("c", intSet(r.Intn(spec.SetAttrCard+1))),
			value.F("d", value.Int(key(i, spec.NY, 1<<30))),
		)
	}
	for i := 0; i < spec.NZ; i++ {
		zs[i] = value.TupleOf(
			value.F("c", value.Int(int64(r.Intn(2*max(1, spec.SetAttrCard))))),
			value.F("d", value.Int(matchedKey())),
		)
	}
	load(db, "X", xT, xs)
	load(db, "Y", yT, ys)
	load(db, "Z", zT, zs)
	return cat, db
}

// RS builds the relational R(A,B,C) / S(C,D) schema of the paper's §2
// COUNT-bug example. B counts how many S tuples share the C value; dangling
// R tuples (C matching no S tuple) get B = 0, so the original nested query
// must return them — the tuples Kim's transformation loses.
func RS(nR, nS, keys int, danglingFrac float64, seed int64) (*schema.Catalog, *storage.DB) {
	if keys <= 0 {
		keys = 1
	}
	r := rand.New(rand.NewSource(seed))
	rT := types.Tuple(types.F("A", types.Int), types.F("B", types.Int), types.F("C", types.Int))
	sT := types.Tuple(types.F("C", types.Int), types.F("D", types.Int))
	cat := schema.NewCatalog()
	must(cat.AddClass("RRow", "R", rT))
	must(cat.AddClass("SRow", "S", sT))
	db := storage.NewDB()
	rs, ss := make([]value.Value, nR), make([]value.Value, nS)

	counts := make(map[int64]int64)
	for i := 0; i < nS; i++ {
		c := int64(r.Intn(keys))
		counts[c]++
		ss[i] = value.TupleOf(
			value.F("C", value.Int(c)),
			value.F("D", value.Int(int64(r.Intn(100)))),
		)
	}
	for i := 0; i < nR; i++ {
		var c int64
		if float64(i) < danglingFrac*float64(nR) {
			c = -int64(i) - 1 // dangling: subquery result is empty, COUNT = 0
		} else {
			c = int64(r.Intn(keys))
		}
		// Half the R tuples get B equal to the true count (they belong to the
		// answer), the rest get a perturbed count.
		b := counts[c]
		if r.Intn(2) == 0 {
			b += int64(r.Intn(3) + 1)
		}
		rs[i] = value.TupleOf(
			value.F("A", value.Int(int64(i))),
			value.F("B", value.Int(b)),
			value.F("C", value.Int(c)),
		)
	}
	load(db, "R", rT, rs)
	load(db, "S", sT, ss)
	return cat, db
}

// load creates table name of db and loads rows into it: a type error is a
// generator bug.
func load(db *storage.DB, name string, elem *types.Type, rows []value.Value) {
	must(db.MustCreate(name, elem).Load(rows))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
