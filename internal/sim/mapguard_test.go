package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mapGuardPackages are the packages a demand request passes through. A Go
// map there costs a hash and a probe per use; sparse sets use mem.Table
// and dense ones a plain slice instead.
var mapGuardPackages = []string{"cache", "hmc", "core", "mem", "pom", "mempod", "memsim", "engine", "mmu", "cpu"}

// mapAllowlist names every declaration in mapGuardPackages whose non-test
// code may mention a map type, each with the reason it is off the
// per-request path. A declaration is "pkg.Func", "pkg.Type.Method" or,
// for a struct field, "pkg.Type.field". It is empty: no request-path
// package holds a map.
var mapAllowlist = map[string]string{}

// TestNoMapsOnRequestPath parses the non-test sources of mapGuardPackages
// and fails on any map type outside a declaration on mapAllowlist. It
// also fails on allowlist entries that no longer match a map, so the list
// shrinks with the code.
func TestNoMapsOnRequestPath(t *testing.T) {
	used := map[string]bool{}
	var bad []string
	fset := token.NewFileSet()
	for _, pkg := range mapGuardPackages {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				forEachMap(pkg, d, func(site string, pos token.Pos) {
					if _, ok := mapAllowlist[site]; ok {
						used[site] = true
						return
					}
					bad = append(bad, fset.Position(pos).String()+": map type in "+site)
				})
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for site := range mapAllowlist {
		if !used[site] {
			t.Errorf("allowlist entry %s matches no map type; delete it", site)
		}
	}
}

// forEachMap calls f with the declaration name and position of every map
// type in top-level declaration d of package pkg.
func forEachMap(pkg string, d ast.Decl, f func(site string, pos token.Pos)) {
	visit := func(site string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok {
				f(site, m.Pos())
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		name := pkg + "." + d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			name = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
		}
		visit(name, d)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					visit(pkg+"."+s.Name.Name, s)
					continue
				}
				for _, fld := range st.Fields.List {
					for _, n := range fieldNames(fld) {
						visit(pkg+"."+s.Name.Name+"."+n, fld.Type)
					}
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					visit(pkg+"."+n.Name, s)
				}
			}
		}
	}
}

// recvName strips pointers and type parameters from a receiver type.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// fieldNames returns a struct field's names, or its type name when the
// field is embedded.
func fieldNames(fld *ast.Field) []string {
	if len(fld.Names) == 0 {
		return []string{recvName(fld.Type)}
	}
	var out []string
	for _, n := range fld.Names {
		out = append(out, n.Name)
	}
	return out
}
