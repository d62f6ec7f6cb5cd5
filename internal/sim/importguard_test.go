package sim

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// schemePackages hold the hybrid-memory schemes. They describe each swap
// once, as an hmc.Move's obs.Swap identity, and every observer learns of it
// from the swap-lifecycle event stream.
var schemePackages = []string{"pom", "mempod", "core"}

// observerSinks are the observer packages a scheme must not call directly.
var observerSinks = []string{"pageseer/internal/obs/ledger", "pageseer/internal/obs/pagemap"}

// TestSchemesImportNoObserverSinks parses the non-test sources of the
// scheme packages and fails on any import of an observer sink, so per-sink
// hooks cannot grow back into the managers.
func TestSchemesImportNoObserverSinks(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range schemePackages {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no sources found for package %s", pkg)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				for _, sink := range observerSinks {
					if p == sink {
						t.Errorf("%s: scheme package %s imports observer sink %s; report through the swap engine's obs.Swap instead",
							fset.Position(imp.Pos()), pkg, sink)
					}
				}
			}
		}
	}
}
