// Command reach reports the functions that no non-test code can reach,
// so API that only tests call cannot build up unnoticed.
//
// It type-checks the non-test packages of the repository root module and
// of benchmark/, once on the default build and once under -tags purego,
// and follows every reference to a function or method from these roots:
//
//   - main and init functions;
//   - package-level variable initialisers;
//   - the public API: the exported functions and methods declared in
//     dievent and dievent/client, and the exported methods of every type
//     those packages alias (dievent.Repository = metadata.Repository
//     makes all of metadata.Repository's exported methods roots);
//   - every method whose name is the name of a method of an interface
//     type the packages can see, since an interface call may reach it.
//
// A function declared in those packages that is live on neither build is
// dead. The allowlist, scripts/reach/allow.txt, keeps dead functions on
// purpose, one per line as
//
//	import/path.Func            # reason
//	import/path.Type.Method     # reason
//
// Allowlisted functions count as roots too, so what only they call stays
// with them. reach prints every dead function that is not allowlisted
// and every stale allowlist entry (one that a root or another live
// function already reaches, or that names no function), and exits 1 if
// there is either. It takes no arguments; run it from the repository
// root:
//
//	go run ./scripts/reach
package main

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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	const allowFile = "scripts/reach/allow.txt"
	rep, err := check([]string{".", "benchmark"}, []string{"repro/dievent", "repro/dievent/client"}, allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for _, f := range rep.Dead {
		fmt.Printf("dead: %s (%s)\n", f, rep.Pos[f])
	}
	for _, f := range rep.Stale {
		fmt.Printf("stale allowlist entry: %s is gone, or reached without its entry\n", f)
	}
	if len(rep.Dead) > 0 || len(rep.Stale) > 0 {
		fmt.Printf("reach: %d dead, %d stale (allowlist %s)\n", len(rep.Dead), len(rep.Stale), allowFile)
		os.Exit(1)
	}
	fmt.Printf("reach: OK (%d functions, %d allowlisted)\n", rep.Declared, rep.Allowed)
}

// report is what check finds.
type report struct {
	Dead     []string          // unreachable even from the allowlist, sorted
	Stale    []string          // allowlisted but gone or reached anyway, sorted
	Pos      map[string]string // declaration position of every function
	Declared int               // functions declared, over both builds
	Allowed  int               // allowlist entries
}

// builds are the build configurations whose live sets are united.
var builds = [][]string{nil, {"-tags", "purego"}}

// check analyses the modules in dirs under every build and compares the
// dead functions with the allowlist file.
func check(dirs, api []string, allowFile string) (*report, error) {
	allowed, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	rep := &report{Pos: map[string]string{}, Allowed: len(allowed)}
	live, needed := map[string]bool{}, map[string]bool{}
	for _, flags := range builds {
		g, err := load(dirs, flags, api)
		if err != nil {
			return nil, err
		}
		for f, pos := range g.pos {
			rep.Pos[f] = pos
		}
		l, n := g.reach(allowed)
		for f := range l {
			live[f] = true
		}
		for f := range n {
			needed[f] = true
		}
	}
	rep.Declared = len(rep.Pos)
	for f := range rep.Pos {
		if !live[f] {
			rep.Dead = append(rep.Dead, f)
		}
	}
	for f := range allowed {
		if rep.Pos[f] == "" || needed[f] {
			rep.Stale = append(rep.Stale, f)
		}
	}
	sort.Strings(rep.Dead)
	sort.Strings(rep.Stale)
	return rep, nil
}

// readAllow parses the allowlist: one function per line, each with a
// "# reason" comment. Blank lines and lines that are only a comment are
// skipped.
func readAllow(file string) (map[string]bool, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		if !ok || strings.TrimSpace(reason) == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Func  # reason\", got %q", file, i+1, line)
		}
		if allowed[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", file, i+1, name)
		}
		allowed[name] = true
	}
	return allowed, nil
}

// listed is the part of `go list -json` output that load uses.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
}

// graph is the reference graph of one build.
type graph struct {
	pos   map[string]string   // declared function → position
	edges map[string][]string // function → functions it references
	roots []string            // functions any run or API caller may reach (package doc)
}

// load lists and type-checks the non-test packages of every module in
// dirs under one set of build flags, and builds their reference graph.
// Module packages are checked from source, everything else (the
// standard library) from export data.
func load(dirs, flags, api []string) (*graph, error) {
	src := map[string]*listed{}
	var order []string
	export := map[string]string{}
	for _, dir := range dirs {
		args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard"}, flags...)
		cmd := exec.Command("go", append(args, "./...")...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			p := new(listed)
			if err := dec.Decode(p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			switch {
			case p.Standard:
				export[p.ImportPath] = p.Export
			case len(p.CgoFiles) > 0:
				return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
			case src[p.ImportPath] == nil:
				src[p.ImportPath] = p
				order = append(order, p.ImportPath) // -deps lists dependencies first
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	loaded := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := loaded[path]; p != nil {
			return p, nil
		}
		p, err := std.Import(path)
		loaded[path] = p
		return p, err
	})
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	checked := map[*types.Package][]*ast.File{}
	for _, path := range order {
		p := src[path]
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", path, err)
		}
		loaded[path] = pkg
		checked[pkg] = files
	}

	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	isAPI := map[string]bool{}
	for _, p := range api {
		isAPI[p] = true
	}
	refs := func(n ast.Node) []string {
		var out []string
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok && checked[fn.Pkg()] != nil {
					out = append(out, key(fn))
				}
			}
			return true
		})
		return out
	}
	g := &graph{pos: map[string]string{}, edges: map[string][]string{}}
	methods := map[string][]string{} // method name → declared methods of that name
	for pkg, files := range checked {
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok { // package-level initialisers run unconditionally
					g.roots = append(g.roots, refs(decl)...)
					continue
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name() == "main") {
					g.roots = append(g.roots, refs(fd)...)
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				k := key(fn)
				pos := fset.Position(fd.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					pos.Filename = rel
				}
				g.pos[k] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				g.edges[k] = refs(fd)
				if isAPI[pkg.Path()] && fd.Name.IsExported() {
					g.roots = append(g.roots, k)
				}
				if fd.Recv != nil {
					methods[fn.Name()] = append(methods[fn.Name()], k)
				}
			}
		}
	}
	for _, path := range api {
		g.roots = append(g.roots, aliasedMethods(loaded[path], checked)...)
	}
	for name := range interfaceMethods(loaded, info) {
		g.roots = append(g.roots, methods[name]...)
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// key names a declared function or method: "pkg/path.Func" or
// "pkg/path.Type.Method". A method of an unnamed interface type, as in
// v.(interface{ Flush() error }).Flush(), declares nothing and has no
// key: key returns "".
func key(fn *types.Func) string {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// aliasedMethods returns the exported methods of every module type that
// an exported alias in pkg names: through the alias they are pkg's API.
func aliasedMethods(pkg *types.Package, checked map[*types.Package][]*ast.File) []string {
	if pkg == nil {
		return nil
	}
	var out []string
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		n, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || checked[n.Obj().Pkg()] == nil {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Exported() {
				out = append(out, key(m))
			}
		}
	}
	return out
}

// interfaceMethods returns the method names of every named interface in
// the loaded packages, their imports and the universe, and of every
// interface type the checked code mentions.
func interfaceMethods(loaded map[string]*types.Package, info *types.Info) map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range loaded {
		visit(p)
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return names
}

// reach returns the functions reachable from the roots and the allowlist
// (live), and those that are roots or that a live function references
// (needed): an allowlist entry that is needed is stale.
func (g *graph) reach(allowed map[string]bool) (live, needed map[string]bool) {
	work := append([]string(nil), g.roots...)
	needed = map[string]bool{}
	for _, k := range work {
		needed[k] = true
	}
	for k := range allowed {
		if g.pos[k] != "" {
			work = append(work, k)
		}
	}
	live = map[string]bool{}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if live[k] {
			continue
		}
		live[k] = true
		for _, e := range g.edges[k] {
			if e != k {
				needed[e] = true
				work = append(work, e)
			}
		}
	}
	return live, needed
}
