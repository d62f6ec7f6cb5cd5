package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// schemeResolver is the one function in this package that may name a
// scheme package; everything else reaches the installed scheme through
// hmc.Manager and the controller.
const schemeResolver = "resolveScheme"

// resolvedSchemes are the scheme packages only schemeResolver may name.
var resolvedSchemes = []string{"pageseer/internal/pom", "pageseer/internal/mempod"}

// TestSchemesNamedOnlyByResolver parses the package's non-test sources and
// fails on any selector of a resolved scheme package outside
// schemeResolver, so adding or retiring a scheme stays an edit to that one
// function plus the scheme's own package.
func TestSchemesNamedOnlyByResolver(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	resolvers := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]string{} // local import name -> scheme package
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(resolvedSchemes, p) {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			named[name] = p
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == schemeResolver {
				resolvers++
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && named[id.Name] != "" {
					t.Errorf("%s: %s.%s names scheme package %s outside %s",
						fset.Position(sel.Pos()), id.Name, sel.Sel.Name, named[id.Name], schemeResolver)
				}
				return true
			})
		}
	}
	if resolvers != 1 {
		t.Fatalf("found %d functions named %s, want exactly 1", resolvers, schemeResolver)
	}
}
