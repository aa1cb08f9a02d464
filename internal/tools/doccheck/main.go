// Command doccheck verifies that every exported top-level identifier
// in the given package directories carries a doc comment, so every
// package stays fully documented under `go doc` (the CI docs job runs
// it over the root, internal, cmd and tools packages). It checks
// exported functions, methods on exported receivers, type
// declarations, and const/var specs (a doc comment on a grouped
// declaration covers the group, mirroring how godoc renders them).
// Test files are skipped.
//
// Usage: doccheck DIR [DIR...]
// Exits non-zero listing every undocumented identifier.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	var missing []string
	for _, dir := range dirs {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers without doc comments:\n", len(missing))
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, " ", m)
		}
		os.Exit(1)
	}
}

// checkDir parses one package directory and returns the undocumented
// exported identifiers as "file:line: name" strings.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), funcLabel(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return missing, nil
}

// exportedReceiver reports whether a function is free or its receiver
// type is exported (methods on unexported types are not public API).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// checkGenDecl handles type/const/var declarations: a doc comment on
// the declaration covers every spec in the group; otherwise each
// exported spec needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok == token.IMPORT || d.Doc != nil {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}
