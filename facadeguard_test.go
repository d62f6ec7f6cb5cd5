package pageseer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeCallers are the directories whose non-test code the facade serves.
var facadeCallers = []string{"cmd", "examples"}

// TestFacadeNamesHaveCallers parses pageseer.go's exported names and fails
// on any that no non-test file under facadeCallers uses as pageseer.<Name>,
// so the facade re-exports only what its callers need.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "pageseer.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, obj := range facade.Scope.Objects {
		if ast.IsExported(name) && obj.Kind != ast.Bad {
			names = append(names, name)
		}
	}

	used := map[string]bool{}
	for _, dir := range facadeCallers {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "pageseer" {
					local = "pageseer"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for _, name := range names {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of pageseer.go's %d exported names have no caller under %v; delete them or use them: %s",
			len(unused), len(names), facadeCallers, strings.Join(unused, ", "))
	}
}
