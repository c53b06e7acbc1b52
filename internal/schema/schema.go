// Package schema implements TM schema objects: sorts (named structured
// types), classes with named extensions, and the catalog resolving names to
// types. The paper's running example (§3.2) — classes Employee and Department
// with extensions EMP and DEPT and sort Address — is provided as a ready-made
// catalog for examples and tests.
package schema

import (
	"errors"
	"fmt"

	"tmdb/internal/types"
)

// Sort is a named reusable structured type (e.g. Address, Date).
type Sort struct {
	Name string
	Type *types.Type
}

// Class is a TM class: a named tuple of attributes with an explicitly named
// extension holding its instances.
type Class struct {
	Name      string
	Extension string
	Attrs     *types.Type // tuple type; may reference sorts and classes
}

// Catalog holds the schema: classes (by class and extension name) and sorts.
type Catalog struct {
	classes map[string]*Class
	byExt   map[string]*Class
	sorts   map[string]*Sort
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		classes: make(map[string]*Class),
		byExt:   make(map[string]*Class),
		sorts:   make(map[string]*Sort),
	}
}

// AddSort registers a sort; redefinition is an error.
func (c *Catalog) AddSort(name string, t *types.Type) error {
	if _, dup := c.sorts[name]; dup {
		return fmt.Errorf("schema: sort %s already defined", name)
	}
	c.sorts[name] = &Sort{Name: name, Type: t}
	return nil
}

// AddClass registers a class and its extension name.
func (c *Catalog) AddClass(name, extension string, attrs *types.Type) error {
	if attrs == nil || attrs.Kind != types.KTuple {
		return fmt.Errorf("schema: class %s attributes must form a tuple type", name)
	}
	if _, dup := c.classes[name]; dup {
		return fmt.Errorf("schema: class %s already defined", name)
	}
	if _, dup := c.byExt[extension]; dup {
		return fmt.Errorf("schema: extension %s already defined", extension)
	}
	cl := &Class{Name: name, Extension: extension, Attrs: attrs}
	c.classes[name] = cl
	c.byExt[extension] = cl
	return nil
}

// ClassByExtension returns the class whose extension has the given name.
func (c *Catalog) ClassByExtension(ext string) (*Class, bool) {
	cl, ok := c.byExt[ext]
	return cl, ok
}

// ErrUnknownExtension is the errors.Is target of the error ElementType
// returns for an extension no class of the catalog has.
var ErrUnknownExtension = errors.New("schema: unknown extension")

// ElementType returns the fully resolved tuple type of one element of the
// named extension: class attributes with sort references expanded and class
// references replaced by the referenced class's element structure reduced to
// a set of such tuples (one level, which is what the paper's examples use:
// `emps : P Employee`).
func (c *Catalog) ElementType(ext string) (*types.Type, error) {
	cl, ok := c.byExt[ext]
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownExtension, ext)
	}
	return c.Resolve(cl.Attrs, map[string]bool{cl.Name: true})
}

// Resolve expands sort and class references inside t. Class references expand
// to the referenced class's resolved attribute tuple; cycles are broken by
// leaving a recursive reference as an opaque Any (complex-object stores
// materialize such references as OIDs; none of the paper's queries traverse
// cycles).
func (c *Catalog) Resolve(t *types.Type, inProgress map[string]bool) (*types.Type, error) {
	if t == nil {
		return nil, fmt.Errorf("schema: nil type")
	}
	switch t.Kind {
	case types.KClass:
		if s, ok := c.sorts[t.Name]; ok {
			return c.Resolve(s.Type, inProgress)
		}
		cl, ok := c.classes[t.Name]
		if !ok {
			return nil, fmt.Errorf("schema: unknown sort or class %s", t.Name)
		}
		if inProgress[t.Name] {
			return types.Any, nil
		}
		inProgress[t.Name] = true
		defer delete(inProgress, t.Name)
		return c.Resolve(cl.Attrs, inProgress)
	case types.KSet:
		e, err := c.Resolve(t.Elem, inProgress)
		if err != nil {
			return nil, err
		}
		return types.SetOf(e), nil
	case types.KList:
		e, err := c.Resolve(t.Elem, inProgress)
		if err != nil {
			return nil, err
		}
		return types.ListOf(e), nil
	case types.KTuple:
		fs := make([]types.Field, len(t.Fields))
		for i, f := range t.Fields {
			e, err := c.Resolve(f.Type, inProgress)
			if err != nil {
				return nil, err
			}
			fs[i] = types.F(f.Label, e)
		}
		return types.Tuple(fs...), nil
	default:
		return t, nil
	}
}

// Company returns the paper's §3.2 example schema:
//
//	SORT Address = (street, nr, city : STRING)
//	CLASS Employee WITH EXTENSION EMP
//	  (name : STRING, address : Address, sal : INT,
//	   children : P (name : STRING, age : INT))
//	CLASS Department WITH EXTENSION DEPT
//	  (name : STRING, address : Address, emps : P Employee)
func Company() *Catalog {
	c := NewCatalog()
	addr := types.Tuple(
		types.F("street", types.String),
		types.F("nr", types.String),
		types.F("city", types.String),
	)
	must(c.AddSort("Address", addr))
	must(c.AddClass("Employee", "EMP", types.Tuple(
		types.F("name", types.String),
		types.F("address", types.Class("Address")),
		types.F("sal", types.Int),
		types.F("children", types.SetOf(types.Tuple(
			types.F("name", types.String),
			types.F("age", types.Int),
		))),
	)))
	must(c.AddClass("Department", "DEPT", types.Tuple(
		types.F("name", types.String),
		types.F("address", types.Class("Address")),
		types.F("emps", types.SetOf(types.Class("Employee"))),
	)))
	return c
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
