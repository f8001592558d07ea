package repro

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names a program reaches through a standard
// interface (sort.Interface, fmt.Stringer, error, io and http writers)
// rather than by name, so a scan for the name cannot see their callers.
var interfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "String": true, "Error": true,
	"Unwrap": true, "Read": true, "Write": true, "WriteHeader": true,
	"Flush": true, "Close": true,
}

// internalDecl is one exported top-level name declared in a non-test
// file under internal/.
type internalDecl struct {
	label string // pkg.Name or pkg.Recv.Name
	name  string
	dir   string
	file  string
	off   int // byte offset of the declaring identifier
}

// identUse is one IDENT token of a .go file.
type identUse struct {
	dir, file string
	test      bool
	off       int
}

// TestInternalSurface keeps internal/ to the names its callers use, the
// internal twin of TestFacadeSurface. An exported func, method, type, var
// or const declared in a non-test file under internal/ must be named,
// other than at its own declaration, in some non-test .go file of the
// repository (perfbench/ included) or in a test file of another
// directory. A name only its own package's tests use belongs in those
// tests. Matching is by identifier, outside comments and strings, so a
// name collision can hide a dead name but never flag a live one.
func TestInternalSurface(t *testing.T) {
	var decls []internalDecl
	uses := map[string][]identUse{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, test := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		scanIdents(uses, src, identUse{dir: dir, file: path, test: test})
		if !test && strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			decls = append(decls, exportedDecls(t, path, src)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for _, d := range decls {
		if !usedElsewhere(d, uses[d.name]) {
			unused = append(unused, d.label)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("internal/ exports names no program and no other package's test uses; delete them or move them into their package's tests: %v", unused)
	}
}

// usedElsewhere reports whether any use of d's name, other than its
// declaring identifier, sits in a non-test file or in a test file of
// another directory.
func usedElsewhere(d internalDecl, uses []identUse) bool {
	for _, u := range uses {
		if u.file == d.file && u.off == d.off {
			continue
		}
		if !u.test || u.dir != d.dir {
			return true
		}
	}
	return false
}

// scanIdents records every IDENT token of src under its name. The
// scanner skips comments and reads strings as literals, so neither
// counts as a use.
func scanIdents(uses map[string][]identUse, src []byte, at identUse) {
	fset := token.NewFileSet()
	file := fset.AddFile(at.file, -1, len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			u := at
			u.off = file.Offset(pos)
			uses[lit] = append(uses[lit], u)
		}
	}
}

// exportedDecls returns the exported top-level funcs, methods, types,
// vars and consts of one source file, less methods named in
// interfaceMethods.
func exportedDecls(t *testing.T, path string, src []byte) []internalDecl {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := filepath.Base(filepath.Dir(path))
	var out []internalDecl
	add := func(id *ast.Ident, label string) {
		if id.IsExported() {
			out = append(out, internalDecl{label: label, name: id.Name,
				dir: filepath.Dir(path), file: path, off: fset.Position(id.Pos()).Offset})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name)
			} else if !interfaceMethods[d.Name.Name] {
				add(d.Name, pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, pkg+"."+n.Name)
					}
				}
			}
		}
	}
	return out
}

// recvName returns the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
