package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// typeDecls maps a package name to its declared types, each to its
// struct fields (embedded ones under their type's name; none for a
// non-struct type).
type typeDecls map[string]map[string]map[string]bool

// collectTypeDecls parses every non-test Go file under root, skipping
// hidden directories and, unless it is root itself, any testdata tree.
func collectTypeDecls(t *testing.T, root string) typeDecls {
	t.Helper()
	decls := typeDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		types := decls[f.Name.Name]
		if types == nil {
			types = map[string]map[string]bool{}
			decls[f.Name.Name] = types
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			fields := map[string]bool{}
			if st, ok := spec.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						fields[name.Name] = true
					}
					if len(fl.Names) == 0 {
						fields[embeddedName(fl.Type)] = true
					}
				}
			}
			types[spec.Name.Name] = fields
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// embeddedName is the field name of an embedded type expression.
func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// TestLockTableNamesExist keeps the lock table in step with the code:
// lockorder reports a mutex with no rank, but a row naming a type or
// field that no longer exists would sit in the table unnoticed. Every
// (Pkg, Type, Field) rank and every (Pkg, Type, Method) effect must
// resolve to a type declared in the repository — or, for the analyzer
// fixtures' packages, under testdata/src — and a rank's field to one of
// that type's fields. Every class an effect lists must have a rank.
func TestLockTableNamesExist(t *testing.T) {
	tree := collectTypeDecls(t, filepath.Join("..", ".."))
	fixtures := collectTypeDecls(t, filepath.Join("testdata", "src"))
	resolve := func(pkg, typ string) (map[string]bool, bool) {
		types, ok := tree[pkg]
		if !ok {
			types, ok = fixtures[pkg]
		}
		if !ok {
			return nil, false
		}
		fields, ok := types[typ]
		return fields, ok
	}
	for _, c := range lockOrder {
		fields, ok := resolve(c.Pkg, c.Type)
		if !ok {
			t.Errorf("lock rank %s.%s.%s: no type %s in package %s", c.Pkg, c.Type, c.Field, c.Type, c.Pkg)
			continue
		}
		if !fields[c.Field] {
			t.Errorf("lock rank %s.%s.%s: type %s has no field %s", c.Pkg, c.Type, c.Field, c.Type, c.Field)
		}
	}
	for _, e := range lockEffects {
		if _, ok := resolve(e.Pkg, e.Type); !ok {
			t.Errorf("lock effect %s.%s.%s: no type %s in package %s", e.Pkg, e.Type, e.Method, e.Type, e.Pkg)
		}
		for _, k := range e.Classes {
			if _, ok := lockRanks[k]; !ok {
				t.Errorf("lock effect %s.%s.%s: class %s.%s.%s has no rank", e.Pkg, e.Type, e.Method, k.Pkg, k.Type, k.Field)
			}
		}
	}
}
