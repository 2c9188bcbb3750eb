package hydra

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
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
	"internal/core.BruteForceKNN":              "TestBruteForceKNN, the methods conformance suite and the index tests' exact reference",
	"internal/transform/dft.LowerBound":        "dft's TestLowerBoundProperty and vaq's TestDFTFeatureLowerBound",
	"internal/transform/eapca.Compute":         "TestComputeSynopsis and dstree's TestSplitMatchesReference",
	"internal/index/isaxtree.(*Tree).Validate": "TestTreeInvariants, isax's TestTreeInvariantsAfterBuild and ads's TestSummaryArrayComplete",
	// Kernel references.
	"internal/series.SquaredDistEA":        "TestSquaredDistEAProperty, TestBlockedPruningParity, TestKernelTailsOnArenaViews and BenchmarkKernels",
	"internal/series.SquaredDistEAOrdered": "TestSquaredDistEAOrderedExact, TestBlockedPruningParity and BenchmarkKernels",
	// Test hooks.
	"internal/faultpoint.Armed":                    "TestFaultEnvArmed and TestIngestFaultTornTail",
	"internal/faultpoint.Hits":                     "TestFaultSnapshotReadError, TestFaultSlowIO and TestCheckpointDoesNotBlockQueries",
	"internal/faultpoint.Reset":                    "TestIngestFaultTornTail, TestCoordinatorFaultDrills, TestWALFaultpoints and the other tests that arm a faultpoint in process",
	"internal/index/mtree.(*Index).BuildDistCalcs": "TestBuildWorkBudget",
	"internal/core.(*BoundQueue).Queued":           "TestVAFileVisitOrderMatchesReference",
	"internal/simd.HasAVX2":                        "the asm equivalence tests (equiv_amd64_test.go), which must run under HYDRA_SIMD=go too",
	"internal/storage.(*Counters).ChargeRand":      "TestSharedCountersUnderConcurrency and the frozen leaf visits of TestRefinerMatchesReferenceLoop and isax's and sfatrie's TestMemberFilterNeverChangesAnswers",
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

// reachConfigs are the build tag sets the gate type-checks, for linux/amd64.
// Together they compile every non-test file of the module and of bench/
// except bench/proc_other.go, which builds only off linux: purego swaps
// internal/simd's assembly dispatch for dispatch_fallback.go.
var reachConfigs = []string{"", "purego"}

// reachUnchecked lists the non-test files no configuration compiles.
var reachUnchecked = map[string]bool{"bench/proc_other.go": true}

// reachDecl is one top-level declaration: a func, a method, a type, or one
// name of a var or const spec.
type reachDecl struct {
	key      string // as in reachabilityAllow
	name     string
	method   bool
	pos      token.Position
	dir, pkg string // the package's directory and name
	info     *types.Info
	refs     []ast.Node // the syntax whose identifiers it references
}

// reachGraph holds every declaration of the module's and bench/'s non-test
// Go files in one build configuration. examples/ is left out: an example is
// a client of package hydra (TestExamplesUsePublicAPI), so it keeps nothing
// else alive.
type reachGraph struct {
	all      []*reachDecl
	byObj    map[types.Object]*reachDecl
	byMethod map[string][]*reachDecl // the methods, by name
	files    []string                // the compiled files, relative to the repo root
	ignored  []string                // the non-test files the build tags exclude
}

// TestInternalReachability is the reachability gate. Every declaration under
// internal/, and every unexported one in cmd/ and tools/, must be reached
// from a shipped entry point — a main function outside examples/, package
// hydra's exported API, an init function, or a method only the standard
// library calls — unless reachabilityAllow keeps it for a test. Reachability
// is transitive, so code only dead code uses is dead too. References are
// resolved by type (go/types over the toolchain's export data, so the go
// command must be present), in every configuration of reachConfigs; a
// declaration any configuration reaches is live. One approximation remains:
// a method called through an interface or a type parameter reaches every
// method of that name on the module's types.
func TestInternalReachability(t *testing.T) {
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	keys := map[string]string{} // position -> key of each declaration the gate checks
	kept := map[string]bool{}   // by position
	names, needed := map[string]int{}, map[string]bool{}
	compiled, ignored := map[string]bool{}, map[string]bool{}
	for _, tags := range reachConfigs {
		g, err := loadReachGraph(tags, fset, parsed)
		if err != nil {
			t.Fatalf("-tags=%q: %v", tags, err)
		}
		for _, f := range g.files {
			compiled[f] = true
		}
		for _, f := range g.ignored {
			ignored[f] = true
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
		live := g.reach(append(shipped, allowed...))
		for _, d := range g.all {
			tool := strings.HasPrefix(d.dir, "cmd/") || strings.HasPrefix(d.dir, "tools/")
			if strings.HasPrefix(d.dir, "internal/") || tool && !ast.IsExported(d.name) {
				keys[d.pos.String()] = d.key
				kept[d.pos.String()] = kept[d.pos.String()] || live[d]
			}
		}
		for _, d := range allowed {
			key := d.key
			if reachabilityAllow[key] == "" {
				key = d.dir
			}
			names[key]++
			needed[key] = needed[key] || !reached[d]
		}
	}

	var dead []string
	for pos, key := range keys {
		if !kept[pos] {
			dead = append(dead, pos+": "+key)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s is reached by no shipped entry point: delete it, or keep it in reachabilityAllow naming the test that needs it", s)
	}
	for key := range reachabilityAllow {
		switch {
		case names[key] == 0:
			t.Errorf("reachabilityAllow entry %q names no declaration", key)
		case !needed[key]:
			t.Errorf("reachabilityAllow entry %q is reached by shipped code; remove the entry", key)
		}
	}
	for f := range ignored {
		if !compiled[f] && !reachUnchecked[f] {
			t.Errorf("%s is compiled in no configuration of reachConfigs, so the gate cannot check it", f)
		}
	}
	for f := range reachUnchecked {
		if compiled[f] || !ignored[f] {
			t.Errorf("reachUnchecked entry %s is not a file every configuration excludes", f)
		}
	}
}

// reach returns every declaration the roots reach, themselves included.
func (g *reachGraph) reach(roots []*reachDecl) map[*reachDecl]bool {
	live := map[*reachDecl]bool{}
	var work []*reachDecl
	mark := func(d *reachDecl) {
		if d != nil && !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	for _, d := range roots {
		mark(d)
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		visit := func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := d.info.Uses[id]
			if c, ok := d.info.Defs[id].(*types.Const); ok {
				obj = c // an iota run is one block: each of its consts keeps all
			}
			if f, ok := obj.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					for _, m := range g.byMethod[f.Name()] {
						mark(m)
					}
					return true
				}
				obj = f.Origin()
			}
			mark(g.byObj[obj])
			return true
		}
		for _, n := range d.refs {
			ast.Inspect(n, visit)
		}
	}
	return live
}

// loadReachGraph type-checks the module and bench/ from source under the
// given build tags, importing the standard library from the export data
// `go list -export` leaves in the build cache. parsed caches the syntax
// trees across configurations.
func loadReachGraph(tags string, fset *token.FileSet, parsed map[string]*ast.File) (*reachGraph, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "-tags="+tags, "./...", "hydra/...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64")
	out, err := cmd.Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		err = fmt.Errorf("%v: %s", err, ee.Stderr)
	}
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}

	exports, own := map[string]string{}, map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := own[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	g := &reachGraph{byObj: map[types.Object]*reachDecl{}, byMethod: map[string][]*reachDecl{}}
	// -deps lists every package after its imports.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			Dir, ImportPath, Export string
			Standard                bool
			GoFiles, IgnoredGoFiles []string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		dir, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		dir = filepath.ToSlash(dir)
		if p.Standard || dir == "examples" || strings.HasPrefix(dir, "examples/") {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			file := path.Join(dir, name)
			f := parsed[file]
			if f == nil {
				if f, err = parser.ParseFile(fset, file, nil, parser.SkipObjectResolution); err != nil {
					return nil, err
				}
				parsed[file] = f
			}
			files = append(files, f)
			g.files = append(g.files, file)
		}
		for _, name := range p.IgnoredGoFiles {
			if !strings.HasSuffix(name, "_test.go") {
				g.ignored = append(g.ignored, path.Join(dir, name))
			}
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		if own[p.ImportPath], err = conf.Check(p.ImportPath, fset, files, info); err != nil {
			return nil, err
		}
		for _, f := range files {
			g.addFile(fset, f, dir, info)
		}
	}
	return g, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addFile records the top-level declarations of f, a file in directory dir
// that info describes.
func (g *reachGraph) addFile(fset *token.FileSet, f *ast.File, dir string, info *types.Info) {
	add := func(id *ast.Ident, recv string, refs ...ast.Node) {
		d := &reachDecl{key: dir + "." + id.Name, name: id.Name, method: recv != "",
			pos: fset.Position(id.Pos()), dir: dir, pkg: f.Name.Name, info: info, refs: refs}
		if d.method {
			d.key = dir + ".(" + recv + ")." + id.Name
			g.byMethod[id.Name] = append(g.byMethod[id.Name], d)
		}
		if obj := info.Defs[id]; obj != nil {
			g.byObj[obj] = d
		}
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
			add(decl.Name, receiverName(decl.Recv), refs...)
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
					add(spec.Name, "", spec)
				case *ast.ValueSpec:
					refs := ast.Node(spec)
					if block != nil {
						refs = block
					}
					for _, n := range spec.Names {
						add(n, "", refs)
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
