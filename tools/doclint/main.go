// Command doclint enforces the repository's documentation bar, the
// CI docs job's teeth: every package must carry a package comment, every
// exported top-level identifier (funcs, methods, types, consts, vars) must
// have a doc comment, and a comment that names a .md or .go file must name
// one the repository holds (by its path from the module root or any tail of
// it, so "FORMAT.md" finds docs/FORMAT.md). It uses only the standard
// library's go/ast.
//
// Usage:
//
//	go run ./tools/doclint <dir> [<dir>...]
//
// Each argument is walked recursively; directories named testdata, vendor,
// or starting with "." or "_" are skipped, as are _test.go files. Exits 1
// after printing every violation as file:line: message.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	dirs := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirs[filepath.Dir(path)] = true
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
	}

	repoFiles, err := repoFileTails()
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var violations []string
	for _, dir := range sorted {
		violations = append(violations, lintDir(dir, repoFiles)...)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println(v)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

// lintDir checks one package directory and returns its violations.
func lintDir(dir string, repoFiles map[string]bool) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", dir, err)}
	}
	var out []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f := pkg.Files[name]
			if f.Doc != nil {
				hasPkgDoc = true
			}
			out = append(out, lintFile(fset, f)...)
			out = append(out, lintFileRefs(fset, f, repoFiles)...)
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return out
}

// lintFile reports exported top-level declarations without doc comments.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !receiverExported(d.Recv) {
				continue // method on an unexported type
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), declKind(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// repoFileTails lists the repository's files — everything under the nearest
// ancestor directory holding go.mod, hidden directories excepted — as the
// set of every path tail: docs/FORMAT.md is entered under that name and as
// FORMAT.md.
func repoFileTails() (map[string]bool, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for dir := root; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			root = dir
			break
		}
		if dir == filepath.Dir(dir) {
			break // no module above: the working directory stands in
		}
	}
	tails := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for {
			tails[rel] = true
			i := strings.IndexByte(rel, '/')
			if i < 0 {
				return nil
			}
			rel = rel[i+1:]
		}
	})
	return tails, err
}

// lintFileRefs reports comments that name a .md or .go file the repository
// does not hold. A name is a whitespace-separated word, less surrounding
// punctuation and any :line suffix, made of path characters only and
// starting with a letter or digit — so globs, "_test.go" and elided paths
// are not names.
func lintFileRefs(fset *token.FileSet, f *ast.File, repoFiles map[string]bool) []string {
	var out []string
	for _, group := range f.Comments {
		for _, c := range group.List {
			for _, word := range strings.Fields(c.Text) {
				word, _, _ = strings.Cut(word, ":")
				word = strings.Trim(word, "()[]{}<>\"'`,.;!?")
				if !strings.HasSuffix(word, ".md") && !strings.HasSuffix(word, ".go") {
					continue
				}
				if !isFileName(word) || repoFiles[strings.TrimPrefix(word, "./")] {
					continue
				}
				p := fset.Position(c.Pos())
				out = append(out, fmt.Sprintf("%s:%d: comment names %s, which the repository does not hold", p.Filename, p.Line, word))
			}
		}
	}
	return out
}

// isFileName reports whether word reads as a file path: letters, digits and
// "_", "-", ".", "/" only, starting with a letter or digit.
func isFileName(word string) bool {
	for i, r := range word {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_-./", r)) {
			return false
		}
	}
	return true
}

func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// receiverExported reports whether a method's receiver base type is exported
// (methods on unexported types are not part of the package API).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
