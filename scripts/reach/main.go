// Command reach reports the API that only tests use, so it cannot build
// up unnoticed: functions no non-test code reaches, struct fields no
// non-test code sets, and types, constants and variables no non-test
// code names.
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
// dead. An exported field of an exported struct type is unwritten when
// no code of either build sets it: no composite literal keys it (an
// unkeyed literal sets every field), no assignment or ++/-- has it (or
// an element of it) on the left, and no & takes its address. A default
// is not a setting: `if o.F == 0 { o.F = 5 }` does not count. Embedded
// fields are exempt. An exported package-level type, constant or
// variable outside dievent and dievent/client is test-only when no code
// of either build names it, apart from its own declaration and the
// receivers of its methods.
//
// The allowlist, scripts/reach/allow.txt, keeps any of these on purpose,
// one per line as
//
//	import/path.Func            # reason
//	import/path.Type.Method     # reason
//	import/path.Type.Field      # reason
//	import/path.Name            # reason (a type, constant or variable)
//
// Allowlisted functions count as roots too, so what only they call stays
// with them. reach prints every finding that is not allowlisted and every
// stale allowlist entry (one that names nothing, or something that
// non-test code already reaches, sets or names), and exits 1 if there is
// either.
//
// reach also lists every exported identifier reachable through dievent
// and dievent/client (package-level names, then the exported fields and
// methods of every module type their declarations mention, transitively)
// and exits 1 when dievent/api.txt differs from that list, so every
// change of the public API shows as a diff of that file. Run it from the
// repository root; -w rewrites dievent/api.txt:
//
//	go run ./scripts/reach [-w]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
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
	const allowFile, apiFile = "scripts/reach/allow.txt", "dievent/api.txt"
	write := flag.Bool("w", false, "rewrite "+apiFile+" instead of comparing it")
	flag.Parse()
	rep, err := check([]string{".", "benchmark"}, []string{"repro/dievent", "repro/dievent/client"}, allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for _, kind := range []struct {
		what  string
		names []string
	}{{"dead", rep.Dead}, {"unwritten field", rep.Unwritten}, {"test-only", rep.TestOnly}} {
		for _, f := range kind.names {
			fmt.Printf("%s: %s (%s)\n", kind.what, f, rep.Pos[f])
		}
	}
	for _, f := range rep.Stale {
		fmt.Printf("stale allowlist entry: %s is gone, or used without its entry\n", f)
	}
	api := strings.Join(rep.API, "\n") + "\n"
	if *write {
		if err := os.WriteFile(apiFile, []byte(api), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "reach:", err)
			os.Exit(2)
		}
	}
	old, _ := os.ReadFile(apiFile)
	apiDiff := diffLines(string(old), api)
	for _, l := range apiDiff {
		fmt.Printf("%s: %s\n", apiFile, l)
	}
	bad := len(rep.Dead) + len(rep.Unwritten) + len(rep.TestOnly)
	if bad > 0 || len(rep.Stale) > 0 || len(apiDiff) > 0 {
		fmt.Printf("reach: %d unused, %d stale (allowlist %s), %d API lines differ (%s; -w rewrites it)\n",
			bad, len(rep.Stale), allowFile, len(apiDiff), apiFile)
		os.Exit(1)
	}
	fmt.Printf("reach: OK (%d functions, fields, types, constants and variables; %d allowlisted; %d API lines)\n",
		rep.Declared, rep.Allowed, len(rep.API))
}

// diffLines lists the lines only one of old and new has, as "-line" and
// "+line".
func diffLines(old, new string) []string {
	count := map[string]int{}
	for _, l := range strings.Split(old, "\n") {
		count[l]--
	}
	for _, l := range strings.Split(new, "\n") {
		count[l]++
	}
	var out []string
	for l, n := range count {
		for ; n < 0; n++ {
			out = append(out, "-"+l)
		}
		for ; n > 0; n-- {
			out = append(out, "+"+l)
		}
	}
	sort.Strings(out)
	return out
}

// report is what check finds.
type report struct {
	Dead      []string          // functions unreachable even from the allowlist, sorted
	Unwritten []string          // fields no non-test code sets, not allowlisted, sorted
	TestOnly  []string          // types, constants and variables no non-test code names, not allowlisted, sorted
	Stale     []string          // allowlisted but gone or used anyway, sorted
	Pos       map[string]string // declaration position of everything checked
	Declared  int               // functions, fields and objects declared, over both builds
	Allowed   int               // allowlist entries
	API       []string          // the public API listing of the default build, sorted
}

// builds are the build configurations whose live sets are united.
var builds = [][]string{nil, {"-tags", "purego"}}

// check analyses the modules in dirs under every build and compares its
// findings with the allowlist file.
func check(dirs, api []string, allowFile string) (*report, error) {
	allowed, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	rep := &report{Pos: map[string]string{}, Allowed: len(allowed)}
	live, needed, used := map[string]bool{}, map[string]bool{}, map[string]bool{}
	funcs, fields := map[string]bool{}, map[string]bool{}
	for i, flags := range builds {
		g, err := load(dirs, flags, api)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rep.API = g.api
		}
		for f, pos := range g.pos {
			rep.Pos[f], funcs[f] = pos, true
		}
		for f, pos := range g.fields {
			rep.Pos[f], fields[f] = pos, true
		}
		for f, pos := range g.objs {
			rep.Pos[f] = pos
		}
		for f := range g.used {
			used[f] = true
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
		switch {
		case funcs[f]:
			if !live[f] {
				rep.Dead = append(rep.Dead, f)
			}
		case used[f] || allowed[f]:
		case fields[f]:
			rep.Unwritten = append(rep.Unwritten, f)
		default:
			rep.TestOnly = append(rep.TestOnly, f)
		}
	}
	for f := range allowed {
		if rep.Pos[f] == "" || needed[f] || used[f] {
			rep.Stale = append(rep.Stale, f)
		}
	}
	sort.Strings(rep.Dead)
	sort.Strings(rep.Unwritten)
	sort.Strings(rep.TestOnly)
	sort.Strings(rep.Stale)
	return rep, nil
}

// readAllow parses the allowlist: one name per line, each with a
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

// graph is the reference graph of one build, with what the other rules
// need.
type graph struct {
	pos    map[string]string   // declared function → position
	edges  map[string][]string // function → functions it references
	roots  []string            // functions any run or API caller may reach (package doc)
	fields map[string]string   // exported field of an exported struct type → position
	objs   map[string]string   // exported type, constant or variable outside the API → position
	used   map[string]bool     // the fields non-test code sets and the objects it names
	api    []string            // the public API listing (apiList)
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
	position := func(p token.Pos) string {
		pos := fset.Position(p)
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
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
				g.pos[k] = position(fd.Pos())
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
	g.fields, g.objs, g.used = declaredData(checked, info, isAPI, position)
	g.api = apiList(api, loaded, checked)
	return g, nil
}

// declaredData finds the exported fields of exported struct types and
// the exported package-level types, constants and variables outside the
// API packages, with their positions, and which of them the checked
// code uses: sets, for a field, and names, for the others (package doc).
func declaredData(checked map[*types.Package][]*ast.File, info *types.Info, isAPI map[string]bool, position func(token.Pos) string) (fields, objs map[string]string, used map[string]bool) {
	fields, objs, used = map[string]string{}, map[string]string{}, map[string]bool{}
	names := map[types.Object]string{}   // declared field or object → key
	spans := map[types.Object]ast.Node{} // object → its own declaration
	receivers := map[*ast.Ident]bool{}   // identifiers in method receivers
	for pkg, files := range checked {
		declare := func(obj types.Object, decl ast.Node) {
			if obj != nil && obj.Exported() && !isAPI[pkg.Path()] {
				k := pkg.Path() + "." + obj.Name()
				names[obj], spans[obj], objs[k] = k, decl, position(obj.Pos())
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(info.Defs[id], s)
						}
					case *ast.TypeSpec:
						tn := info.Defs[s.Name].(*types.TypeName)
						declare(tn, s)
						st, ok := tn.Type().Underlying().(*types.Struct)
						if !ok || !tn.Exported() || tn.IsAlias() {
							continue
						}
						for i := 0; i < st.NumFields(); i++ {
							if fv := st.Field(i); fv.Exported() && !fv.Embedded() {
								k := pkg.Path() + "." + tn.Name() + "." + fv.Name()
								names[fv], fields[k] = k, position(fv.Pos())
							}
						}
					}
				}
			}
		}
	}
	set := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if k := names[v.Origin()]; k != "" {
				used[k] = true
			}
		}
	}
	// setField marks the field that an assignment target, or the
	// operand of &, sets: x.F, and also x.F[i] and *x.F.
	setField := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				set(info.Uses[x.Sel])
				return
			default:
				return
			}
		}
	}
	// defaults maps each assignment in the body of an if to the fields
	// the if's condition reads: `if o.F == 0 { o.F = 5 }` fills in a
	// default and sets nothing a caller asked for.
	defaults := map[*ast.AssignStmt]map[types.Object]bool{}
	for _, files := range checked {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.IfStmt:
					read := map[types.Object]bool{}
					ast.Inspect(x.Cond, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							read[info.Uses[sel.Sel]] = true
						}
						return true
					})
					for _, st := range x.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok {
							defaults[as] = read
						}
					}
				case *ast.Ident:
					obj := info.Uses[x]
					if k, d := names[obj], spans[obj]; k != "" && objs[k] != "" && !receivers[x] && (x.Pos() < d.Pos() || x.Pos() >= d.End()) {
						used[k] = true
					}
				case *ast.CompositeLit:
					t := info.Types[x].Type
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					for _, e := range x.Elts {
						if kv, isKV := e.(*ast.KeyValueExpr); isKV && ok {
							if id, isID := kv.Key.(*ast.Ident); isID {
								set(info.Uses[id])
							}
						} else if ok { // unkeyed: every field
							for i := 0; i < st.NumFields(); i++ {
								set(st.Field(i))
							}
						}
					}
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); !ok || !defaults[x][info.Uses[sel.Sel]] {
							setField(l)
						}
					}
				case *ast.IncDecStmt:
					setField(x.X)
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						setField(x.Key)
						setField(x.Value)
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						setField(x.X)
					}
				}
				return true
			})
		}
	}
	return fields, objs, used
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

// apiList lists every exported identifier reachable through the API
// packages, one per line in the style of Go's api/go1.*.txt: the
// packages' exported names, then the exported fields and methods of
// every module type their declarations mention, transitively. Parameter
// names are left out, so only a change of the API changes the list.
func apiList(api []string, loaded map[string]*types.Package, checked map[*types.Package][]*ast.File) []string {
	seen := map[*types.TypeName]bool{}
	var queue []*types.TypeName
	var mention func(t types.Type)
	mention = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if obj := t.Origin().Obj(); checked[obj.Pkg()] != nil && !seen[obj] {
				seen[obj] = true
				queue = append(queue, obj)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				mention(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			mention(t.Elem())
		case *types.Slice:
			mention(t.Elem())
		case *types.Array:
			mention(t.Elem())
		case *types.Chan:
			mention(t.Elem())
		case *types.Map:
			mention(t.Key())
			mention(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					mention(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					mention(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				mention(t.Method(i).Type())
			}
		}
	}
	lines := map[string]bool{}
	for _, path := range api {
		pkg := loaded[path]
		if pkg == nil {
			continue
		}
		q := qualifier(pkg)
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			mention(obj.Type())
			var decl string
			switch obj := obj.(type) {
			case *types.Const:
				decl = fmt.Sprintf("const %s %s = %s", name, types.TypeString(obj.Type(), q), obj.Val().ExactString())
			case *types.Var:
				decl = fmt.Sprintf("var %s %s", name, types.TypeString(obj.Type(), q))
			case *types.Func:
				decl = "func " + name + signature(obj.Type().(*types.Signature), q)
			case *types.TypeName:
				decl = typeDecl(obj, q)
			}
			lines["pkg "+path+", "+decl] = true
		}
	}
	for len(queue) > 0 {
		tn := queue[0]
		queue = queue[1:]
		q := qualifier(tn.Pkg())
		prefix := "pkg " + tn.Pkg().Path() + ", "
		lines[prefix+typeDecl(tn, q)] = true
		n := tn.Type().(*types.Named)
		switch u := n.Underlying().(type) {
		case *types.Struct:
			mention(u)
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					lines[fmt.Sprintf("%stype %s struct, %s %s", prefix, tn.Name(), f.Name(), types.TypeString(f.Type(), q))] = true
				}
			}
		case *types.Interface:
			mention(u)
			for i := 0; i < u.NumMethods(); i++ {
				if m := u.Method(i); m.Exported() {
					lines[fmt.Sprintf("%stype %s interface, %s%s", prefix, tn.Name(), m.Name(), signature(m.Type().(*types.Signature), q))] = true
				}
			}
		}
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			if !m.Exported() {
				continue
			}
			sig := m.Type().(*types.Signature)
			mention(sig)
			recv := tn.Name()
			if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
				recv = "*" + recv
			}
			lines[fmt.Sprintf("%smethod (%s) %s%s", prefix, recv, m.Name(), signature(sig, q))] = true
		}
	}
	out := make([]string, 0, len(lines))
	for l := range lines {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// qualifier names the packages other than pkg by their name.
func qualifier(pkg *types.Package) types.Qualifier {
	return func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
}

// typeDecl renders a type declaration's head: an alias with its target,
// a struct or interface by its kind, any other type with its underlying
// type.
func typeDecl(tn *types.TypeName, q types.Qualifier) string {
	if tn.IsAlias() {
		return fmt.Sprintf("type %s = %s", tn.Name(), types.TypeString(types.Unalias(tn.Type()), q))
	}
	switch u := tn.Type().Underlying().(type) {
	case *types.Struct:
		return "type " + tn.Name() + " struct"
	case *types.Interface:
		return "type " + tn.Name() + " interface"
	default:
		return "type " + tn.Name() + " " + types.TypeString(u, q)
	}
}

// signature renders a function's parameter and result types without
// their names.
func signature(sig *types.Signature, q types.Qualifier) string {
	tuple := func(t *types.Tuple, variadic bool) []string {
		var out []string
		for i := 0; i < t.Len(); i++ {
			typ := t.At(i).Type()
			if variadic && i == t.Len()-1 {
				out = append(out, "..."+types.TypeString(typ.(*types.Slice).Elem(), q))
				continue
			}
			out = append(out, types.TypeString(typ, q))
		}
		return out
	}
	s := "(" + strings.Join(tuple(sig.Params(), sig.Variadic()), ", ") + ")"
	switch res := tuple(sig.Results(), false); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}
