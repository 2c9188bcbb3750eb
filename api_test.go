package hydra

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiGolden is the recorded exported surface of package hydra. A change
// that adds, removes or re-signs an exported name edits this file in the
// same commit and says why.
const apiGolden = "testdata/api.txt"

// TestPublicAPI is the public-surface gate: every exported top-level
// declaration of package hydra, and every exported method of an exported
// type, printed as one line and sorted, must equal testdata/api.txt. On a
// mismatch it prints what went and what came, then the full new listing to
// copy over the file.
func TestPublicAPI(t *testing.T) {
	got, err := publicAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	var diff strings.Builder
	for _, l := range setMinus(want, got) {
		diff.WriteString("- " + l + "\n")
	}
	for _, l := range setMinus(got, want) {
		diff.WriteString("+ " + l + "\n")
	}
	t.Fatalf("exported API differs from %s:\n%s\nnew listing:\n%s\n", apiGolden, diff.String(), strings.Join(got, "\n"))
}

// publicAPI lists the exported surface of the package in dir, one sorted
// line per declaration, without doc comments, bodies or unexported struct
// fields.
func publicAPI(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var lines []string
	add := func(prefix string, n any) {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			panic(err)
		}
		lines = append(lines, prefix+strings.Join(strings.Fields(b.String()), " "))
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Recv != nil && !ast.IsExported(receiverType(d.Recv)) {
					continue
				}
				sig := *d
				sig.Body = nil
				if d.Recv != nil {
					recv := *d.Recv.List[0]
					recv.Names = nil
					sig.Recv = &ast.FieldList{List: []*ast.Field{&recv}}
				}
				add("", &sig)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						ts := *s
						if st, ok := s.Type.(*ast.StructType); ok {
							ts.Type = exportedFields(st)
						}
						add("type ", &ts)
					case *ast.ValueSpec:
						for i, name := range s.Names {
							if !name.IsExported() {
								continue
							}
							vs := ast.ValueSpec{Names: []*ast.Ident{name}, Type: s.Type}
							if i < len(s.Values) {
								vs.Values = []ast.Expr{s.Values[i]}
							}
							add(d.Tok.String()+" ", &vs)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// receiverType names a method's receiver type, pointer or not.
func receiverType(recv *ast.FieldList) string {
	e := recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// exportedFields is st without its unexported fields.
func exportedFields(st *ast.StructType) *ast.StructType {
	out := &ast.StructType{Fields: &ast.FieldList{}}
	for _, f := range st.Fields.List {
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			out.Fields.List = append(out.Fields.List, &ast.Field{Names: names, Type: f.Type})
		}
	}
	return out
}

// setMinus is the lines of a absent from b.
func setMinus(a, b []string) []string {
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
