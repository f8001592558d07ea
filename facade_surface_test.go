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

// TestFacadeSurface keeps the root facade to the names its callers use.
// Every name wikimatch.go exports must be referenced as repro.Name in
// non-comment code of examples/, cmd/, a root *example*_test.go file or
// a fenced Go block of README.md; and every repro.Name a README block
// references must be exported, since README snippets are not compiled.
func TestFacadeSurface(t *testing.T) {
	exported := facadeExports(t, "wikimatch.go")

	callers, err := filepath.Glob("*example*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") {
				callers = append(callers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	for _, path := range callers {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scanReproRefs(used, src)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readmeRefs := map[string]bool{}
	for _, block := range goBlocks(string(readme)) {
		scanReproRefs(readmeRefs, []byte(block))
		scanReproRefs(used, []byte(block))
	}

	if unused := missing(exported, used); len(unused) > 0 {
		t.Errorf("wikimatch.go exports names no example, cmd, Example test or README block uses; delete them: %v", unused)
	}
	if undefined := missing(readmeRefs, exported); len(undefined) > 0 {
		t.Errorf("README.md Go blocks reference names wikimatch.go does not export: %v", undefined)
	}
}

// missing returns the names of want that have lacks, sorted.
func missing(want, have map[string]bool) []string {
	var out []string
	for name := range want {
		if !have[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// facadeExports returns the exported top-level names declared in path.
func facadeExports(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// scanReproRefs records every repro.Name selector in src. The scanner
// skips comments, so a name mentioned only in a comment is no reference;
// it also tolerates the statement fragments README blocks hold.
func scanReproRefs(refs map[string]bool, src []byte) {
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile("", -1, len(src)), src, nil, 0)
	var prev [2]string // the two previous tokens' literal forms
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT && prev[0] == "." && prev[1] == "repro" {
			refs[lit] = true
		}
		text := lit
		if tok == token.PERIOD {
			text = "."
		}
		prev[1], prev[0] = prev[0], text
	}
}

// goBlocks returns the bodies of the ```go fenced blocks in markdown.
func goBlocks(md string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case !in && trimmed == "```go":
			in, cur = true, nil
		case in && trimmed == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}
