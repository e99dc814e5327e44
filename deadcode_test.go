package dpspatial

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// implicitMethods are method names that standard-library interfaces call
// without the name appearing at the call site (fmt, errors, net/http,
// encoding, io, sort, flag), so a method with one of these names is live
// whenever its receiver type is.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Write": true, "WriteHeader": true, "Header": true,
	"Read": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	"Is": true, "As": true, "Set": true,
}

// TestNoUnreferencedDeclarations is a type-checked dead-code gate built on
// the standard library. It fails on any top-level func, method, type,
// const or var declared in a non-test file of this module that no
// product root reaches. The roots are:
//   - main and every init of every package, the benchmark module in
//     loadbench/ included (it is read as source, never checked itself);
//   - the root package's exported API, with the exported methods of the
//     internal types it re-exports by alias;
//   - exported declarations that _test.go files in another directory use,
//     since Go gives such a test no test-only file it can import.
//
// A method is live when its receiver type is live and live code selects
// it, a live interface the type implements requires it, or its name is
// in implicitMethods. A package's own tests never keep a declaration
// alive: code only they use belongs in a _test.go file.
func TestNoUnreferencedDeclarations(t *testing.T) {
	found, err := unreachableDecls(".", "dpspatial", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("unreachable declaration %s", f)
	}
}

// testOnlyDecls lists, sorted and without line numbers, the product
// declarations that only tests in another directory use: the gate's
// other-directory-test rule keeps them, so they are the findings of the
// gate with that rule off.
var testOnlyDecls = []string{
	"internal/cellfo/cellfo.go: method (*Oracle).Linear",
	"internal/durable/durable.go: func RecordEnds",
	"internal/durable/wal.go: func framedRecordSize",
	"internal/experiments/experiments.go: method (*Suite).Config",
	"internal/fo/fo.go: method (*Channel).Apply",
	"internal/fo/fo.go: method (*Channel).MaxRatio",
	"internal/fo/fo.go: method (*Channel).Samplers",
	"internal/fo/grr.go: method (*GRR).Channel",
	"internal/fo/linear.go: func maxRatioByRows",
	"internal/fo/linear.go: method (*UniformSparse).NNZ",
	"internal/geom/disk.go: func PureLowAreaClosedForm",
	"internal/grid/hist.go: func TotalVariation",
	"internal/trace/trace.go: method (*Tracer).Completed",
}

// TestTestOnlyDeclarations runs the gate with its other-directory-test
// rule off and requires exactly testOnlyDecls. A new product declaration
// that only another directory's tests use fails it until the list names
// it; one that gains a product caller, or leaves, must leave the list.
func TestTestOnlyDeclarations(t *testing.T) {
	found, err := unreachableDecls(".", "dpspatial", false)
	if err != nil {
		t.Fatal(err)
	}
	got := withoutLines(found)
	if strings.Join(got, "\n") != strings.Join(testOnlyDecls, "\n") {
		t.Errorf("test-only declarations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(testOnlyDecls, "\n"))
	}
}

// withoutLines drops the line number from each "file:line: kind name"
// finding, so moving a declaration within its file keeps its entry, and
// sorts the result.
func withoutLines(found []string) []string {
	out := make([]string, len(found))
	for i, f := range found {
		file, rest, _ := strings.Cut(f, ":")
		_, rest, _ = strings.Cut(rest, ":")
		out[i] = file + ":" + rest
	}
	sort.Strings(out)
	return out
}

// TestReachabilityGatePlanted runs the gate on the module planted under
// testdata/reach, whose declarations cover each rule above.
func TestReachabilityGatePlanted(t *testing.T) {
	found, err := unreachableDecls(filepath.Join("testdata", "reach"), "planted", true)
	if err != nil {
		t.Fatal(err)
	}
	// Square.Area, reached only through the Shape interface, and Unit,
	// called only by another package's test, are live.
	want := []string{
		// Square.Name shares its name with the live Label.Name.
		"internal/shapes/shapes.go:23: method (Square).Name",
		// Perimeter is called only by its own package's test.
		"internal/shapes/shapes.go:27: func Perimeter",
	}
	if strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(found, "\n"), strings.Join(want, "\n"))
	}

	// With the other-directory-test rule off, Unit is reported too.
	found, err = unreachableDecls(filepath.Join("testdata", "reach"), "planted", false)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]string{"internal/shapes/shapes.go:19: func Unit"}, want...)
	if strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings without the test rule:\n%s\nwant:\n%s", strings.Join(found, "\n"), strings.Join(want, "\n"))
	}
}

// The standard library is type-checked from source once per test binary,
// and every run of the gate shares it.
var (
	stdOnce     sync.Once
	stdFset     = token.NewFileSet()
	stdImporter types.ImporterFrom
)

// goPackage is one directory's package, type-checked without its tests.
type goPackage struct {
	path string
	// nested is set for a directory inside a nested module (its own
	// go.mod): it is read as a caller, and its declarations are not
	// checked.
	nested        bool
	files         []*ast.File // non-test files
	tests, xtests []*ast.File // in-package and external _test.go files
	types         *types.Package
	info          *types.Info
}

// reach type-checks one module and walks its call graph from the roots.
type reach struct {
	module string
	pkgs   map[string]*goPackage
	errs   []error
	decls  map[token.Pos]decl // every product top-level declaration
	live   map[token.Pos]bool
	queue  []token.Pos
	// liveTypes and liveIfaces feed the interface rule: a live interface
	// requires its methods of every live type that implements it.
	liveTypes  []*types.Named
	liveIfaces []*types.Interface
	ifaceSeen  map[*types.Interface]bool
}

type decl struct {
	pkg   *goPackage
	nodes []ast.Node
	kind  string
}

// unreachableDecls returns "file:line: kind name" for each top-level
// declaration in dir's module that no root reaches, sorted, with file
// paths relative to dir. testUses turns the other-directory-test rule
// on.
func unreachableDecls(dir, module string, testUses bool) ([]string, error) {
	stdOnce.Do(func() {
		// The pure-Go variant of the standard library type-checks without
		// running cgo.
		build.Default.CgoEnabled = false
		stdImporter = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	r := &reach{module: module, pkgs: map[string]*goPackage{},
		decls: map[token.Pos]decl{}, live: map[token.Pos]bool{}, ifaceSeen: map[*types.Interface]bool{}}
	if err := r.load(dir); err != nil {
		return nil, err
	}
	for _, p := range r.sorted() {
		r.check(p)
	}
	r.index()
	r.markRoots()
	if testUses {
		r.markTestUses()
	}
	if len(r.errs) > 0 {
		return nil, errors.Join(r.errs...)
	}
	r.walk()

	var found []string
	for pos, d := range r.decls {
		if r.live[pos] || d.pkg.nested {
			continue
		}
		p := stdFset.Position(pos)
		rel, err := filepath.Rel(dir, p.Filename)
		if err != nil {
			return nil, err
		}
		found = append(found, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, d.kind))
	}
	sort.Strings(found)
	return found, nil
}

// load parses every package under dir, skipping hidden, underscore and
// testdata directories as the go command does.
func (r *reach) load(dir string) error {
	ctxt := build.Default
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := ctxt.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		p := &goPackage{path: r.module}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
			for sub := rel; sub != "."; sub = filepath.Dir(sub) {
				if _, err := os.Stat(filepath.Join(dir, sub, "go.mod")); err == nil {
					p.nested = true
				}
			}
		}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(stdFset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			return files, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parse(bp.TestGoFiles); err != nil {
			return err
		}
		if p.xtests, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		r.pkgs[p.path] = p
		return nil
	})
}

func (r *reach) inModule(path string) bool {
	return path == r.module || strings.HasPrefix(path, r.module+"/")
}

func (r *reach) sorted() []*goPackage {
	var out []*goPackage
	for _, p := range r.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// importerFunc resolves module packages itself and hands the standard
// library to the shared source importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (r *reach) typeCheck(path string, files []*ast.File, imp importerFunc, info *types.Info) *types.Package {
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { r.errs = append(r.errs, err) },
	}
	pkg, _ := conf.Check(path, stdFset, files, info)
	return pkg
}

func (r *reach) stdOrModule(resolve func(*goPackage) *types.Package) importerFunc {
	return func(path string) (*types.Package, error) {
		if p := r.pkgs[path]; p != nil {
			return resolve(p), nil
		}
		if r.inModule(path) {
			return nil, fmt.Errorf("package %s not found in module", path)
		}
		return stdImporter.ImportFrom(path, "", 0)
	}
}

// check type-checks p's non-test files, recording the uses the walk needs.
func (r *reach) check(p *goPackage) *types.Package {
	if p.types == nil {
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		p.types = r.typeCheck(p.path, p.files, r.stdOrModule(r.check), p.info)
	}
	return p.types
}

// index records every top-level declaration of the module's own packages.
func (r *reach) index() {
	for _, p := range r.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					kind := "func " + d.Name.Name
					if d.Recv != nil {
						kind = "method (" + recvName(d.Recv.List[0].Type) + ")." + d.Name.Name
					}
					r.add(p, d.Name, kind, d)
				case *ast.GenDecl:
					var last ast.Node // a const spec without values repeats the last one's
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.add(p, s.Name, "type "+s.Name.Name, s)
						case *ast.ValueSpec:
							if len(s.Values) > 0 || s.Type != nil {
								last = s
							}
							for _, n := range s.Names {
								r.add(p, n, d.Tok.String()+" "+n.Name, s, last)
							}
						}
					}
				}
			}
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

func (r *reach) add(p *goPackage, name *ast.Ident, kind string, nodes ...ast.Node) {
	if name.Name == "_" {
		return
	}
	if obj := p.info.Defs[name]; obj != nil {
		r.decls[obj.Pos()] = decl{pkg: p, nodes: nodes, kind: kind}
	}
}

func (r *reach) liveIface(iface *types.Interface) {
	if !r.ifaceSeen[iface] {
		r.ifaceSeen[iface] = true
		r.liveIfaces = append(r.liveIfaces, iface)
	}
}

// mark makes obj live. A method selected through an interface makes the
// interface live instead, which the walk resolves to its implementations.
// Declarations are keyed by position, which every view of a package (with
// or without its tests) shares.
func (r *reach) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				r.liveIface(iface)
				return
			}
		}
	}
	pos := obj.Pos()
	if _, ok := r.decls[pos]; !ok || r.live[pos] {
		return
	}
	r.live[pos] = true
	r.queue = append(r.queue, pos)
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		if named, ok := tn.Type().(*types.Named); ok {
			if iface, ok := named.Underlying().(*types.Interface); ok {
				r.liveIface(iface)
			} else {
				r.liveTypes = append(r.liveTypes, named)
			}
		}
	}
}

// markRoots marks main and init everywhere, and the root package's API.
func (r *reach) markRoots() {
	for _, p := range r.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(fd.Name.Name == "init" || fd.Name.Name == "main" && p.types.Name() == "main") {
					r.mark(p.info.Defs[fd.Name])
				}
			}
		}
	}
	root := r.pkgs[r.module]
	if root == nil {
		return
	}
	scope := root.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		r.mark(obj)
		if tn, ok := obj.(*types.TypeName); ok {
			mset := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); m.Exported() {
					r.mark(m)
				}
			}
		}
	}
}

// markTestUses marks the exported declarations that _test.go files use
// from packages in other directories. In-package test files are checked
// with their package, and an external test package sees that package.
// As go test does, each module package that imports the package under
// test is checked again against that view for the external test.
func (r *reach) markTestUses() {
	for _, p := range r.sorted() {
		if len(p.tests)+len(p.xtests) == 0 {
			continue
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		under := p.types
		if len(p.tests) > 0 {
			files := append(append([]*ast.File{}, p.files...), p.tests...)
			under = r.typeCheck(p.path, files, r.stdOrModule(r.check), info)
		}
		if len(p.xtests) > 0 {
			views := map[*goPackage]*types.Package{p: under}
			var view func(q *goPackage) *types.Package
			view = func(q *goPackage) *types.Package {
				if v, ok := views[q]; ok {
					return v
				}
				v := r.check(q)
				if under != p.types && r.imports(q, p, map[*goPackage]bool{}) {
					v = r.typeCheck(q.path, q.files, r.stdOrModule(view), nil)
				}
				views[q] = v
				return v
			}
			r.typeCheck(p.path+"_test", p.xtests, r.stdOrModule(view), info)
		}
		for _, f := range append(append([]*ast.File{}, p.tests...), p.xtests...) {
			eachUse(f, info, func(obj types.Object) {
				if obj.Exported() && obj.Pkg() != nil && obj.Pkg().Path() != p.path && r.inModule(obj.Pkg().Path()) {
					r.mark(obj)
				}
			})
		}
	}
}

// imports reports whether q's non-test files import p, directly or
// through other module packages; seen holds the packages already walked.
func (r *reach) imports(q, p *goPackage, seen map[*goPackage]bool) bool {
	seen[q] = true
	for _, f := range q.files {
		for _, s := range f.Imports {
			path, _ := strconv.Unquote(s.Path.Value)
			if d := r.pkgs[path]; d == p || d != nil && !seen[d] && r.imports(d, p, seen) {
				return true
			}
		}
	}
	return false
}

// walk marks everything live declarations use, until nothing changes.
func (r *reach) walk() {
	applied := map[*types.Named]int{} // how many of liveIfaces each type has met
	for {
		for len(r.queue) > 0 {
			pos := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			d := r.decls[pos]
			for _, node := range d.nodes {
				eachUse(node, d.pkg.info, r.mark)
			}
		}
		for _, named := range r.liveTypes {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); implicitMethods[m.Name()] {
					r.mark(m)
				}
			}
			ptr := types.NewPointer(named)
			for _, iface := range r.liveIfaces[applied[named]:] {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					r.mark(obj)
				}
			}
			applied[named] = len(r.liveIfaces)
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

// eachUse calls f with the object each identifier under node refers to.
func eachUse(node ast.Node, info *types.Info, f func(types.Object)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				f(obj)
			}
		}
		return true
	})
}
