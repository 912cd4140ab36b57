package cliutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewHTTPServerTimeouts(t *testing.T) {
	s := NewHTTPServer(":0", nil)
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	// Whole-request timeouts would cut long /ingest bodies and /results
	// tails.
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v: must stay unset", s.ReadTimeout, s.WriteTimeout)
	}
}

// TestEveryListenerHasEdgeTimeouts scans the commands' sources: every
// http.Server they build must set ReadHeaderTimeout and IdleTimeout, and
// none may use the package-level http.ListenAndServe/Serve helpers, which
// build a server with neither.
func TestEveryListenerHasEdgeTimeouts(t *testing.T) {
	root := filepath.Join("..", "..", "cmd")
	helperCalls := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isSel(n.Type, "http", "Server") {
					set := map[string]bool{}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[id.Name] = true
							}
						}
					}
					if !set["ReadHeaderTimeout"] || !set["IdleTimeout"] {
						t.Errorf("%s: http.Server without ReadHeaderTimeout and IdleTimeout (use cliutil.NewHTTPServer)", path)
					}
				}
			case *ast.CallExpr:
				for _, fn := range []string{"ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS"} {
					if isSel(n.Fun, "http", fn) {
						t.Errorf("%s: http.%s builds a server without edge timeouts", path, fn)
					}
				}
				if isSel(n.Fun, "cliutil", "NewHTTPServer") {
					helperCalls[filepath.Base(filepath.Dir(path))]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// terids-serve: the serving and the -debug-addr listener; terids: its
	// -debug-addr listener.
	for cmd, want := range map[string]int{"terids-serve": 2, "terids": 1} {
		if helperCalls[cmd] != want {
			t.Errorf("cmd/%s builds %d listeners with cliutil.NewHTTPServer, want %d", cmd, helperCalls[cmd], want)
		}
	}
}

func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
