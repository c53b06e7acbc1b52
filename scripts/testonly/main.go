// Command testonly lists the functions and methods declared under internal/
// that no non-test code uses — code that belongs in a _test.go file, or
// nowhere — and exits 1 if any of them is not on its allowlist.
//
// It type-checks every non-test Go file of the repository, the bench module
// included, with go/types, and resolves each use to the declaration it names:
//
//   - a function is used where live non-test code outside its own body names
//     it, called or as a value;
//   - a method is used where live non-test code outside its own body selects
//     it on its own receiver type (or on a type embedding it), or where live
//     code selects a method of an interface it implements: the program's
//     interfaces, the interface-typed fields, parameters and results it uses,
//     error and fmt.Stringer.
//
// Live code is everything but the checked declarations, plus the checked
// declarations that are used or allowlisted; a use inside an unused
// declaration does not count. The check iterates to a fixpoint, so a chain
// of declarations that only dead code reaches is reported whole in one run.
// A name shared by two declarations hides neither. Exported and unexported
// declarations are checked alike. internal/enginetest, the shared test
// harness, is not checked.
//
// Usage, from the repository root (scripts/testonly.sh runs it):
//
//	go run ./scripts/testonly
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// module is the import path of the repository root; the bench module's path,
// tmdb/bench, is its directory under it too.
const module = "tmdb"

// allow holds the declarations kept without a non-test use, each with why.
var allow = map[string]string{
	"faultinject.Activate":         "tests of several packages arm fault schedules with it",
	"tmql.MustParse":               "tests of several packages parse fixtures with it",
	"exec.NewCtx":                  "tests of several packages build execution contexts with it",
	"exec.CollectBatches":          "tests of several packages drain operator trees with it",
	"algebra.CountOps":             "tests of several packages count plan operators with it",
	"planner.OrderLabel":           "tests of several packages name join orders with it",
	"engine.AbortError.Unwrap":     "errors.Is and errors.As call it",
	"engine.TableDroppedError.Is":  "errors.Is calls it",
	"exec.BudgetError.Is":          "errors.Is calls it",
	"value.Value.MarshalJSON":      "encoding/json calls it",
	"value.Value.UnmarshalJSON":    "encoding/json calls it",
	"engine.Engine.DeleteValue":    "public API (tmdb.Engine): the value form of Delete",
	"engine.Engine.DropTable":      "public API (tmdb.Engine): drops an extension",
	"engine.Engine.PlanCandidates": "public API (tmdb.Engine): the candidate table as data; the conformance harness pins each alternative by it",
	"engine.Prepared.Explain":      "public API (tmdb.Prepared): EXPLAIN of a prepared statement",
	"engine.Prepared.Source":       "public API (tmdb.Prepared): the statement text",
	"server.Client.CloseSession":   "public API (tmdb.Client): ends a server session",
	"server.Client.CreateIndex":    "public API (tmdb.Client): registers an index on the server",
	"server.Client.DropIndex":      "public API (tmdb.Client): drops an index on the server",
	"server.Client.Explain":        "public API (tmdb.Client): EXPLAIN through the server",
	"server.Client.Health":         "public API (tmdb.Client): the liveness probe",
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	l := &loader{fset: token.NewFileSet(), root: root, pkgs: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.load(importPath(rel))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	}); err != nil {
		fail(err)
	}
	unused := l.unused()
	status := 0
	for _, name := range unused {
		if allow[name] == "" {
			fmt.Printf("%s: no non-test use\n", name)
			status = 1
		}
	}
	for name := range allow {
		if !slices.Contains(unused, name) {
			fmt.Printf("%s: allowlisted, but non-test code uses it (drop the entry)\n", name)
			status = 1
		}
	}
	os.Exit(status)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "testonly:", err)
	os.Exit(2)
}

// importPath maps a directory relative to the root to its import path.
func importPath(rel string) string {
	if rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// pkg is one type-checked package of the repository.
type pkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// loader type-checks the repository's packages from source, each once, and
// the standard library through the source importer.
type loader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*pkg
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the non-test files of the package at path.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// decl is one checked function or method declaration.
type decl struct {
	name     string
	fn       *types.Func
	from, to token.Pos
}

// unused returns the sorted names (pkg.Func, pkg.Type.Method) of the checked
// declarations that no non-test code uses.
func (l *loader) unused() []string {
	var decls []decl
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.path, module+"/internal/") || p.path == module+"/internal/enginetest" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := p.types.Name() + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = p.types.Name() + "." + namedOf(recv.Type()).Obj().Name() + "." + fn.Name()
				}
				decls = append(decls, decl{name, fn, fd.Pos(), fd.End()})
			}
		}
	}
	// uses pairs each used function or method with the checked declaration
	// whose body holds the use, nil for a use outside every one of them.
	sort.Slice(decls, func(i, j int) bool { return decls[i].from < decls[j].from })
	type use struct{ fn, in *types.Func }
	var uses []use
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			u := use{fn: fn.Origin()}
			if k := sort.Search(len(decls), func(k int) bool { return decls[k].from > id.Pos() }) - 1; k >= 0 && id.Pos() < decls[k].to {
				u.in = decls[k].fn
			}
			if u.in != u.fn {
				uses = append(uses, u)
			}
		}
	}
	live := map[*types.Func]bool{}
	for _, d := range decls {
		live[d.fn] = allow[d.name] != ""
	}
	ifaces := l.interfaces()
	used := map[*types.Func]bool{}
	for grew := true; grew; {
		grew = false
		for _, u := range uses {
			if u.in == nil || live[u.in] {
				used[u.fn] = true
			}
		}
		for _, d := range decls {
			if !live[d.fn] && (used[d.fn] || implements(d.fn, ifaces, used)) {
				live[d.fn], grew = true, true
			}
		}
	}
	var out []string
	for _, d := range decls {
		if !used[d.fn] && !implements(d.fn, ifaces, used) {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

// interfaces returns the interfaces through which the program may call a
// method it never selects directly: those its packages declare or write,
// the types of the fields, variables, parameters and results it uses, and
// error and fmt.Stringer.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		add(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, p := range l.pkgs {
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Var:
				add(o.Type())
			case *types.Func:
				sig := o.Type().(*types.Signature)
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := range tuple.Len() {
						add(tuple.At(i).Type())
					}
				}
			}
		}
	}
	return out
}

// implements reports whether fn is a method by which its receiver type
// implements an interface whose method of that name the program uses. An
// interface outside the repository may call any of its methods, and an
// unexported interface method that nothing calls marks its implementations
// (as tmql.Expr's isExpr does), so implementing it is the use.
func implements(fn *types.Func, ifaces []*types.Interface, used map[*types.Func]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			m := it.Method(i)
			if m.Name() != fn.Name() {
				continue
			}
			if pkg := m.Pkg(); pkg != nil && strings.HasPrefix(pkg.Path()+"/", module+"/") && m.Exported() && !used[m] {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// namedOf returns the named type of a method receiver, T or *T.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
