package dpspatial

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

// implicitMethods are method names that standard-library interfaces call
// without the name appearing at the call site (fmt, errors, net/http,
// encoding, io, sort, flag), so a method with one of these names counts
// as used even when nothing in the tree spells it out.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Write": true, "WriteHeader": true, "Header": true,
	"Read": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	"Is": true, "As": true, "Set": true,
}

// declDirs are the trees whose non-test declarations the gate checks:
// the internal packages, and the main packages under cmd/ and examples/,
// which nothing outside them can call.
var declDirs = []string{"internal/", "cmd/", "examples/"}

// TestNoUnreferencedDeclarations is a standard-library dead-code gate.
// It counts identifier tokens (not comments or strings) across every Go
// file in the tree, tests, commands, examples and the benchmark module
// included, and fails on any top-level func, method, type, const or var
// declared in a non-test file under declDirs whose name occurs only at
// its declaration. Names are matched without their package or receiver,
// so a name shared with any other identifier counts as used.
func TestNoUnreferencedDeclarations(t *testing.T) {
	uses := map[string]int{}
	var declFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
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
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, func(pos token.Position, msg string) {
			t.Errorf("%s: %s", pos, msg)
		}, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		if !strings.HasSuffix(path, "_test.go") {
			for _, dir := range declDirs {
				if strings.HasPrefix(filepath.ToSlash(path), dir) {
					declFiles = append(declFiles, path)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declFiles) == 0 {
		t.Fatalf("no files found under %v", declDirs)
	}

	var unused []string
	report := func(fset *token.FileSet, name *ast.Ident, kind string) {
		if name.Name == "_" || name.Name == "init" || uses[name.Name] > 1 {
			return
		}
		unused = append(unused, fset.Position(name.Pos()).String()+": "+kind+" "+name.Name)
	}
	for _, path := range declFiles {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					report(fset, decl.Name, "func")
				} else if !implicitMethods[decl.Name.Name] {
					report(fset, decl.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						report(fset, spec.Name, "type")
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							report(fset, name, decl.Tok.String())
						}
					}
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("unreferenced declaration %s", u)
	}
}
