package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// httpGolden is the recorded wire surface of hydra-serve: every request and
// response body type, the way TestPublicAPI records package hydra's
// exported surface in testdata/api.txt. A change that adds, drops, renames
// or re-tags a field on the wire edits this file in the same commit and
// says why.
const httpGolden = "../../testdata/http.txt"

// TestHTTPListing is the wire-shape gate: every struct type of this
// package with a json-tagged field, printed as one line without comments
// and sorted, must equal testdata/http.txt. On a mismatch it prints what
// went and what came, then the full new listing to copy over the file.
func TestHTTPListing(t *testing.T) {
	got, err := wireTypes(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(httpGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	var diff strings.Builder
	for _, l := range linesMinus(want, got) {
		diff.WriteString("- " + l + "\n")
	}
	for _, l := range linesMinus(got, want) {
		diff.WriteString("+ " + l + "\n")
	}
	t.Fatalf("wire shapes differ from %s:\n%s\nnew listing:\n%s\n", httpGolden, diff.String(), strings.Join(got, "\n"))
}

// wireTypes lists the struct types of the package in dir that carry a
// json tag on any field, one sorted line each.
func wireTypes(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var lines []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.TypeSpec)
				if st, ok := s.Type.(*ast.StructType); !ok || !jsonTagged(st) {
					continue
				}
				var b bytes.Buffer
				if err := printer.Fprint(&b, fset, s); err != nil {
					return nil, err
				}
				lines = append(lines, "type "+strings.Join(strings.Fields(b.String()), " "))
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// jsonTagged reports whether any field of st carries a json tag.
func jsonTagged(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if f.Tag != nil && reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json") != "" {
			return true
		}
	}
	return false
}

// linesMinus is the lines of a absent from b.
func linesMinus(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, l := range b {
		in[l] = true
	}
	var out []string
	for _, l := range a {
		if !in[l] {
			out = append(out, l)
		}
	}
	return out
}
