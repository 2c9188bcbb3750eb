package hydra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllow keeps the declarations no shipped entry point reaches but
// a test compares against or reads. Each value names that test. Keys are
// "<dir>.<name>" or "<dir>.(<receiver>).<name>"; a bare directory keeps a
// whole package. An entry that names nothing, or only declarations the
// shipped code reaches anyway, fails the gate, so the list cannot go stale.
var reachabilityAllow = map[string]string{
	// Test oracles.
	"internal/core.BruteForceKNN": "TestBruteForceKNN, the methods conformance suite and the index tests' exact reference",
	// Kernel references.
	"internal/series.SquaredDistEA":        "TestSquaredDistEAProperty, TestBlockedPruningParity, TestKernelTailsOnArenaViews and BenchmarkKernels",
	"internal/series.SquaredDistEAOrdered": "TestSquaredDistEAOrderedExact, TestBlockedPruningParity and BenchmarkKernels",
	"internal/transform/fft.FFTReal":       "TestFFTReal, TestGeneratorsHaveDistinctSpectra and dft's TestFeatureScalingMonotone",
	// Test hooks.
	"internal/faultpoint.Armed":                    "TestFaultEnvArmed and TestIngestFaultTornTail",
	"internal/faultpoint.Hits":                     "TestFaultSnapshotReadError, TestFaultSlowIO and TestCheckpointDoesNotBlockQueries",
	"internal/index/mtree.(*Index).BuildDistCalcs": "TestBuildWorkBudget",
	"internal/core.(*BoundQueue).Queued":           "TestVAFileVisitOrderMatchesReference",
	"internal/simd.HasAVX2":                        "the asm equivalence tests (equiv_amd64_test.go), which must run under HYDRA_SIMD=go too",
	// Fixtures and test support.
	"internal/dataset.ScaleQuick": "TestNumSeriesForGB, TestAllExperimentsRun and the figure benchmarks",
	"internal/index/difftest":     "TestMemberFilterNeverChangesAnswers and TestRefineWorkBudget of the index packages",
}

// stdlibMethods are the method names only the standard library calls
// (through fmt, sort, container/heap, errors, encoding/json, flag, io,
// context and net/http interfaces), so no declaration in the module names
// them.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Set": true, "Read": true, "Write": true, "Close": true, "WriteString": true,
	"ReadByte": true, "UnreadByte": true, "WriteByte": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "ReadAt": true, "Seek": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
}

// reachDecl is one top-level declaration: a func, a method, a type, or one
// name of a var or const spec.
type reachDecl struct {
	key      string // as in reachabilityAllow
	name     string
	method   bool
	pos      token.Position
	dir, pkg string     // the package's directory and name
	refs     []ast.Node // the syntax whose identifiers it references
}

// reachGraph holds every declaration of the module's non-test Go files,
// bench/ included. examples/ is left out: an example is a client of package
// hydra (TestExamplesUsePublicAPI), so it keeps nothing else alive.
type reachGraph struct {
	all    []*reachDecl
	byName map[string][]*reachDecl // across packages, methods included
}

// TestInternalReachability is the reachability gate. Every declaration under
// internal/, and every unexported one in cmd/ and tools/, must be reached
// from a shipped entry point — a main function outside examples/, package
// hydra's exported API, an init function, or a method only the standard
// library calls — unless reachabilityAllow keeps it for a test. Reachability
// is transitive, so code only dead code uses is dead too. References match
// by name alone: an identifier Name, bare or in a selector x.Name, reaches
// every declaration called Name in any package, methods included. A name
// collision can hide dead code but cannot flag live code.
func TestInternalReachability(t *testing.T) {
	g, err := parseReachGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	var shipped, allowed []*reachDecl
	for _, d := range g.all {
		switch {
		case d.name == "_", d.name == "init" && !d.method,
			d.name == "main" && d.pkg == "main" && !d.method,
			d.dir == "." && ast.IsExported(d.name),
			d.method && stdlibMethods[d.name]:
			shipped = append(shipped, d)
		case reachabilityAllow[d.key] != "" || reachabilityAllow[d.dir] != "":
			allowed = append(allowed, d)
		}
	}
	reached := g.reach(shipped)
	kept := g.reach(append(shipped, allowed...))

	var dead []string
	for _, d := range g.all {
		tool := strings.HasPrefix(d.dir, "cmd/") || strings.HasPrefix(d.dir, "tools/")
		if !kept[d] && (strings.HasPrefix(d.dir, "internal/") || tool && !ast.IsExported(d.name)) {
			dead = append(dead, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s is reached by no shipped entry point: delete it, or keep it in reachabilityAllow naming the test that needs it", s)
	}

	for key := range reachabilityAllow {
		names, needed := 0, false
		for _, d := range allowed {
			if d.key == key || d.dir == key {
				names++
				needed = needed || !reached[d]
			}
		}
		switch {
		case names == 0:
			t.Errorf("reachabilityAllow entry %q names no declaration", key)
		case !needed:
			t.Errorf("reachabilityAllow entry %q is reached by shipped code; remove the entry", key)
		}
	}
}

// reach returns every declaration the roots reach, themselves included.
func (g *reachGraph) reach(roots []*reachDecl) map[*reachDecl]bool {
	live := map[*reachDecl]bool{}
	var work []*reachDecl
	mark := func(ds []*reachDecl) {
		for _, d := range ds {
			if !live[d] {
				live[d] = true
				work = append(work, d)
			}
		}
	}
	mark(roots)
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				// Field, parameter and interface-method names declare; only
				// the type references.
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				mark(g.byName[n.Name])
			}
			return true
		}
		for _, n := range d.refs {
			ast.Inspect(n, visit)
		}
	}
	return live
}

// parseReachGraph parses every non-test .go file under root, skipping
// testdata, hidden directories, examples and bench/out.
func parseReachGraph(root string) (*reachGraph, error) {
	fset := token.NewFileSet()
	g := &reachGraph{byName: map[string][]*reachDecl{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || rel == "examples" || rel == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := "."
		if i := strings.LastIndexByte(rel, '/'); i >= 0 {
			dir = rel[:i]
		}
		g.addFile(fset, f, dir)
		return nil
	})
	return g, err
}

// addFile records the top-level declarations of f, a file in directory dir.
func (g *reachGraph) addFile(fset *token.FileSet, f *ast.File, dir string) {
	add := func(name, recv string, pos token.Pos, refs ...ast.Node) {
		d := &reachDecl{key: dir + "." + name, name: name, method: recv != "",
			pos: fset.Position(pos), dir: dir, pkg: f.Name.Name, refs: refs}
		if d.method {
			d.key = dir + ".(" + recv + ")." + name
		}
		g.byName[name] = append(g.byName[name], d)
		g.all = append(g.all, d)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			refs := []ast.Node{decl.Type}
			if decl.Recv != nil {
				refs = append(refs, decl.Recv)
			}
			if decl.Body != nil {
				refs = append(refs, decl.Body)
			}
			add(decl.Name.Name, receiverName(decl.Recv), decl.Pos(), refs...)
		case *ast.GenDecl:
			// A const that repeats the spec above it (an iota run) takes its
			// value from its position, so such a block stays or goes whole.
			var block ast.Node
			for _, spec := range decl.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && decl.Tok == token.CONST && len(vs.Values) == 0 {
					block = decl
				}
			}
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name.Name, "", spec.Pos(), spec)
				case *ast.ValueSpec:
					refs := ast.Node(spec)
					if block != nil {
						refs = block
					}
					for _, n := range spec.Names {
						add(n.Name, "", n.Pos(), refs)
					}
				}
			}
		}
	}
}

// receiverName renders a method's receiver type as "T" or "*T", without
// type parameters; it is "" for a plain function.
func receiverName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	star, t := "", recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			star, t = "*", tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return star + tt.Name
		default:
			return star + "?"
		}
	}
}

// TestExamplesUsePublicAPI keeps the examples on the public surface: no Go
// file under examples/ may import the module's internal packages, so an
// example shows only what a user of package hydra can write.
func TestExamplesUsePublicAPI(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "hydra/internal" || strings.HasPrefix(p, "hydra/internal/") {
				t.Errorf("%s imports %s: examples use package hydra only", fset.Position(imp.Pos()), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
