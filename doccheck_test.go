package bgperf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedIdentifiersDocumented enforces the documentation contract on
// the public surface: every exported identifier in the root package, in
// internal/serve (the daemon's serving layer), in internal/request (the
// request vocabulary the daemon and the CLI share), in internal/plan (the
// inverse solver behind Plan and /v1/optimize), in internal/cas (the
// persistent cache tier), and in internal/cluster (the peer ring) carries
// a doc comment. The API reference in docs/ and `go doc` both depend on
// this.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/serve", "internal/request", "internal/plan", "internal/cas", "internal/cluster"} {
		undocumented := missingDocs(t, dir)
		for _, id := range undocumented {
			t.Errorf("%s: exported identifier %s has no doc comment", dir, id)
		}
	}
}

// missingDocs parses every non-test Go file in dir and returns the exported
// top-level identifiers (types, funcs, methods, consts, vars, and exported
// struct fields of exported types) that lack a doc comment.
func missingDocs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var missing []string
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			base := filepath.Base(file)
			for _, decl := range f.Decls {
				missing = append(missing, undocumentedInDecl(base, decl)...)
			}
		}
	}
	return missing
}

// undocumentedInDecl walks one top-level declaration and reports its
// undocumented exported identifiers, qualified by file for readable failures.
func undocumentedInDecl(file string, decl ast.Decl) []string {
	var missing []string
	report := func(name string) { missing = append(missing, file+": "+name) }
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		name := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) > 0 {
			name = receiverName(d.Recv.List[0].Type) + "." + name
			if !ast.IsExported(strings.TrimPrefix(receiverName(d.Recv.List[0].Type), "*")) {
				return nil // method on an unexported type
			}
		}
		report(name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Name.Name)
				}
				if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							if n.IsExported() && f.Doc == nil && f.Comment == nil {
								report(s.Name.Name + "." + n.Name)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					// A const/var block's group comment, the spec's own doc,
					// or a trailing line comment all count.
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(n.Name)
					}
				}
			}
		}
	}
	return missing
}

// receiverName extracts the type name from a method receiver expression.
func receiverName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + receiverName(e.X)
	case *ast.IndexExpr: // generic receiver
		return receiverName(e.X)
	default:
		return "?"
	}
}
