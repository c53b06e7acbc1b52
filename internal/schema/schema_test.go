package schema

import (
	"maps"
	"slices"
	"testing"

	"tmdb/internal/types"
)

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if err := c.AddSort("Point", types.Tuple(types.F("x", types.Int), types.F("y", types.Int))); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSort("Point", types.Int); err == nil {
		t.Error("duplicate sort should fail")
	}
	attrs := types.Tuple(types.F("name", types.String), types.F("pos", types.Class("Point")))
	if err := c.AddClass("Thing", "THINGS", attrs); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass("Thing", "OTHER", attrs); err == nil {
		t.Error("duplicate class should fail")
	}
	if err := c.AddClass("Thing2", "THINGS", attrs); err == nil {
		t.Error("duplicate extension should fail")
	}
	if err := c.AddClass("Bad", "BAD", types.Int); err == nil {
		t.Error("non-tuple attributes should fail")
	}

	if _, ok := c.Class("Thing"); !ok {
		t.Error("Class lookup failed")
	}
	if _, ok := c.ClassByExtension("THINGS"); !ok {
		t.Error("ClassByExtension lookup failed")
	}
	if _, ok := c.Sort("Point"); !ok {
		t.Error("Sort lookup failed")
	}
	if got := c.Extensions(); len(got) != 1 || got[0] != "THINGS" {
		t.Errorf("Extensions = %v", got)
	}
}

func TestElementTypeResolvesSorts(t *testing.T) {
	c := NewCatalog()
	addr := types.Tuple(types.F("city", types.String))
	if err := c.AddSort("Addr", addr); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass("P", "PS", types.Tuple(types.F("a", types.Class("Addr")))); err != nil {
		t.Fatal(err)
	}
	et, err := c.ElementType("PS")
	if err != nil {
		t.Fatal(err)
	}
	want := types.Tuple(types.F("a", addr))
	if !types.Equal(et, want) {
		t.Errorf("ElementType = %s, want %s", et, want)
	}
	if _, err := c.ElementType("NOPE"); err == nil {
		t.Error("unknown extension should fail")
	}
}

func TestElementTypeResolvesClassRefs(t *testing.T) {
	c := Company()
	et, err := c.ElementType("DEPT")
	if err != nil {
		t.Fatal(err)
	}
	emps, ok := et.Field("emps")
	if !ok || emps.Kind != types.KSet || emps.Elem.Kind != types.KTuple {
		t.Fatalf("emps resolved to %v", emps)
	}
	if _, ok := emps.Elem.Field("sal"); !ok {
		t.Errorf("employee structure not expanded: %s", emps.Elem)
	}
}

func TestRecursiveClassBreaksCycle(t *testing.T) {
	c := NewCatalog()
	// Person has a set of friends who are Persons.
	if err := c.AddClass("Person", "PEOPLE", types.Tuple(
		types.F("name", types.String),
		types.F("friends", types.SetOf(types.Class("Person"))),
	)); err != nil {
		t.Fatal(err)
	}
	et, err := c.ElementType("PEOPLE")
	if err != nil {
		t.Fatal(err)
	}
	fr, _ := et.Field("friends")
	if fr.Kind != types.KSet || fr.Elem.Kind != types.KAny {
		t.Errorf("recursive reference should break to Any, got %s", fr)
	}
}

func TestResolveUnknownName(t *testing.T) {
	c := NewCatalog()
	if err := c.AddClass("P", "PS", types.Tuple(types.F("a", types.Class("Ghost")))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ElementType("PS"); err == nil {
		t.Error("unknown sort/class reference should fail")
	}
}

func TestCompanySchemaShape(t *testing.T) {
	c := Company()
	for _, ext := range []string{"EMP", "DEPT"} {
		if _, err := c.ElementType(ext); err != nil {
			t.Errorf("%s: %v", ext, err)
		}
	}
	emp, _ := c.ElementType("EMP")
	kids, ok := emp.Field("children")
	if !ok || kids.Kind != types.KSet {
		t.Errorf("children type = %v", kids)
	}
	addr, _ := emp.Field("address")
	if addr.Kind != types.KTuple {
		t.Errorf("address should resolve to a tuple, got %s", addr)
	}
}

// Extensions returns all extension names, sorted.
func (c *Catalog) Extensions() []string { return slices.Sorted(maps.Keys(c.byExt)) }

// Class returns the class with the given class name.
func (c *Catalog) Class(name string) (*Class, bool) {
	cl, ok := c.classes[name]
	return cl, ok
}

// Sort returns the sort with the given name.
func (c *Catalog) Sort(name string) (*Sort, bool) {
	s, ok := c.sorts[name]
	return s, ok
}
