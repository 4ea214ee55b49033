package correctables_test

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// The reachability gate: a feature lives while a root reaches it. Roots are
// every main/init under cmd/ and examples/, everything benchmark/*.go
// declares (the ruler pins exactly what it uses), every exported function
// of the correctables facade and every method of an interface it aliases
// (what a binding or an observer must implement), the methods the standard
// library calls through interfaces of its own (reachStd), plus package
// initialisation. An exported method of an aliased concrete type is no
// root: it lives while something calls it. A non-test function no root
// reaches, or an exported field of an internal *Config / *Options /
// RetryPolicy struct that no non-test file outside its package sets, fails
// TestReachability unless reachKeep names it with a reason; a keep entry
// that is reached, set, or names nothing fails too.
//
// The same pass gates the one clock: a go statement or a use of
// context.AfterFunc in a non-test file outside benchmark/ fails unless the
// file is one of reachHostGo's.

// reachHostGo names the files that may start goroutines: the virtual
// clock's workers, and the hunt's parallel worlds, each on a clock of its
// own. Anywhere else host scheduling would decide when model code runs.
var reachHostGo = map[string]bool{
	"internal/netsim/virtual.go": true,
	"internal/bench/hunt.go":     true,
}

// reachKeep is the keep-table: unreached code that stays, and why. A test
// name as the reason means "the inspection hook that test uses to look
// inside reached state". A kept function keeps its callees alive.
var reachKeep = map[string]string{
	"cassandra.(*Replica).Get":  "TestHintedHandoffReplaysOnRestart",
	"chain.Config.MinerRegion":  "puts the chain under the crash window of the other three stores in TestHistoryCheckedAcrossAllFourBindings",
	"metrics.(*Histogram).Max":  "TestPropertyHistogramInvariants",
	"metrics.(*Histogram).Min":  "TestPropertyHistogramInvariants",
	"netsim.(*Transport).Meter": "TestCrashDropsAsyncAndCountsOnMeter",
	"zk.(*Server).Tree":         "TestProposeReplicatesInOrder",
}

const (
	reachModule = "correctables"
	reachRuler  = reachModule + "/benchmark"
)

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// reachLoader type-checks module packages from the source tree fsys
// (non-test files of the default build; all of benchmark/*.go, whose tests
// must keep compiling too) and defers everything else to the standard
// library's source importer.
type reachLoader struct {
	fsys fs.FS
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

// goFiles lists the Go files of a module package's directory.
func (l *reachLoader) goFiles(path string) []string {
	names, _ := fs.Glob(l.fsys, strings.TrimPrefix(strings.TrimPrefix(path, reachModule)+"/*.go", "/"))
	return names
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != reachModule && !strings.HasPrefix(path, reachModule+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	return p.types, err
}

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p := &reachPkg{path: path, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	l.pkgs[path] = p
	for _, name := range l.goFiles(path) {
		if strings.HasSuffix(name, "_test.go") && path != reachRuler {
			continue
		}
		src, err := fs.ReadFile(l.fsys, name)
		if err != nil {
			return p, err
		}
		if !reachBuilds(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return p, err
		}
		p.files = append(p.files, f)
	}
	var err error
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p, err
}

// reachBuilds reports whether a file's //go:build line, if it has one, holds
// with no build tag set: the gate checks the default build.
func reachBuilds(src []byte) bool {
	for line := range strings.Lines(string(src)) {
		if strings.HasPrefix(line, "package ") {
			break
		}
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			return err == nil && expr.Eval(func(string) bool { return false })
		}
	}
	return true
}

// reachGraph walks the call graph. Every use of a function's name counts
// as a call; calling an interface method reaches that method on every
// module type implementing the interface (on every type with a method of
// that name, where generics keep go/types from deciding). The methods of
// the standard library's interfaces that it calls itself (reachStd) are
// roots wherever the module imports their package.
type reachGraph struct {
	decls map[*types.Func]reachDecl
	named []*types.Named // every non-interface named type of the module
	seen  map[*types.Func]bool
}

// reachDecl is a declaration to walk, with the type information of its
// package.
type reachDecl struct {
	node ast.Node
	info *types.Info
}

func (g *reachGraph) visit(fn *types.Func) {
	fn = fn.Origin()
	if g.seen[fn] {
		return
	}
	g.seen[fn] = true
	if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		g.dispatch(fn, recv.Type())
	} else if d, ok := g.decls[fn]; ok {
		g.walk(d)
	}
}

func (g *reachGraph) walk(d reachDecl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := d.info.Uses[id].(*types.Func); ok {
				g.visit(fn)
			}
		}
		return true
	})
}

func (g *reachGraph) dispatch(m *types.Func, iface types.Type) {
	generic := func(t types.Type) bool {
		n, ok := t.(*types.Named)
		return ok && (n.TypeParams().Len() > 0 || n.TypeArgs().Len() > 0)
	}
	for _, t := range g.named {
		ptr := types.NewPointer(t)
		obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
		if impl, ok := obj.(*types.Func); ok && (generic(iface) || generic(t) ||
			types.Implements(ptr, iface.Underlying().(*types.Interface))) {
			g.visit(impl)
		}
	}
}

// reachAnalysis is what one pass over the tree found.
type reachAnalysis struct {
	graph   *reachGraph            // seen = what the roots reach
	funcs   map[string]*types.Func // every non-test function outside benchmark/
	options map[string]bool        // every option field -> set by a non-test file outside its package
	hostGo  []string               // every go statement and context.AfterFunc use outside reachHostGo
}

// reachStd names the standard library's interfaces whose methods the
// library calls on module values: fmt prints through Stringer,
// encoding/json encodes and decodes through Marshaler and Unmarshaler.
var reachStd = map[string][]string{
	"fmt":           {"Stringer"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

var analyseReachOnce = sync.OnceValues(func() (*reachAnalysis, error) {
	return analyseReach(os.DirFS("."))
})

// analyseReach analyses the module whose source tree is fsys.
func analyseReach(fsys fs.FS) (*reachAnalysis, error) {
	l := &reachLoader{fsys: fsys, fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := fs.WalkDir(fsys, ".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if path := strings.TrimSuffix(reachModule+"/"+dir, "/."); len(l.goFiles(path)) > 0 {
			_, err = l.load(path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	g := &reachGraph{decls: map[*types.Func]reachDecl{}, seen: map[*types.Func]bool{}}
	var roots []*types.Func
	var inits []reachDecl        // package-level initialisers always run
	set := map[*types.Var]bool{} // struct fields set from outside their package
	var hostGo []string
	for _, p := range l.pkgs {
		facade := p.path == reachModule
		entry := strings.HasPrefix(p.path, reachModule+"/cmd/") || strings.HasPrefix(p.path, reachModule+"/examples/")
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok {
				continue
			}
			if !tn.IsAlias() && !types.IsInterface(n) {
				g.named = append(g.named, n)
			}
			if it, ok := n.Underlying().(*types.Interface); ok && facade && tn.IsAlias() && tn.Exported() {
				roots = slices.AppendSeq(roots, it.Methods())
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					inits = append(inits, reachDecl{decl, p.info})
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				g.decls[fn] = reachDecl{fd, p.info}
				if p.path == reachRuler || fd.Recv == nil && (fn.Name() == "init" ||
					entry && fn.Name() == "main" || facade && fn.Exported()) {
					roots = append(roots, fn)
				}
			}
			noteSets(f, p, set)
			if name := l.fset.File(f.Pos()).Name(); p.path != reachRuler && !reachHostGo[name] {
				hostGo = append(hostGo, hostGoroutines(l.fset, f, p.info)...)
			}
		}
		for _, imp := range p.types.Imports() {
			for _, name := range reachStd[imp.Path()] {
				it := imp.Scope().Lookup(name).Type().Underlying().(*types.Interface)
				roots = slices.AppendSeq(roots, it.Methods())
			}
		}
	}
	for _, d := range inits {
		g.walk(d)
	}
	for _, fn := range roots {
		g.visit(fn)
	}

	a := &reachAnalysis{graph: g, funcs: map[string]*types.Func{}, options: map[string]bool{}, hostGo: hostGo}
	for fn := range g.decls {
		if fn.Pkg().Path() != reachRuler {
			a.funcs[reachFuncName(fn)] = fn
		}
	}
	for _, t := range g.named {
		st, ok := t.Underlying().(*types.Struct)
		name := t.Obj().Name()
		if !ok || !strings.Contains(t.Obj().Pkg().Path(), "/internal/") ||
			!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") && name != "RetryPolicy" {
			continue
		}
		for f := range st.Fields() {
			if f.Exported() {
				a.options[reachLabel(f.Pkg())+"."+name+"."+f.Name()] = set[f]
			}
		}
	}
	return a, nil
}

// noteSets records every struct field of another package that file f sets:
// composite-literal keys, assignment and ++/-- targets, and fields whose
// address is taken. (go vet's composites check keeps unkeyed literals of
// imported structs out of the tree.)
func noteSets(f *ast.File, p *reachPkg, set map[*types.Var]bool) {
	note := func(e ast.Expr) {
		id, _ := ast.Unparen(e).(*ast.Ident)
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
		if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
			set[v.Origin()] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			note(n.Key)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				note(n.X)
			}
		}
		return true
	})
}

// hostGoroutines lists the places in f that hand work to host scheduling:
// go statements and uses of context.AfterFunc.
func hostGoroutines(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		what := ""
		switch n := n.(type) {
		case *ast.GoStmt:
			what = "go statement"
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" && fn.Name() == "AfterFunc" {
				what = "context.AfterFunc"
			}
		}
		if what != "" {
			out = append(out, fmt.Sprintf("host goroutine: %s: %s", fset.Position(n.Pos()), what))
		}
		return true
	})
	return out
}

// reachLabel names a package the way the keep-table does: its import path
// below the module root, minus "internal/".
func reachLabel(pkg *types.Package) string {
	if pkg.Path() == reachModule {
		return reachModule
	}
	return strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), reachModule+"/"), "internal/")
}

func reachFuncName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		switch t := recv.Type().(type) {
		case *types.Pointer:
			name = "(*" + t.Elem().(*types.Named).Obj().Name() + ")." + name
		case *types.Named:
			name = t.Obj().Name() + "." + name
		}
	}
	return reachLabel(fn.Pkg()) + "." + name
}

// reachReport compares an analysis with a keep-table and returns the
// sorted list of violations (empty = the gate passes).
func reachReport(a *reachAnalysis, keep map[string]string) []string {
	out := slices.Clone(a.hostGo)
	alive := &reachGraph{decls: a.graph.decls, named: a.graph.named, seen: maps.Clone(a.graph.seen)}
	for name, reason := range keep {
		fn, isFunc := a.funcs[name]
		set, isOption := a.options[name]
		switch {
		case !isFunc && !isOption:
			out = append(out, fmt.Sprintf("stale keep entry: %s names no function or option", name))
		case isFunc && a.graph.seen[fn]:
			out = append(out, fmt.Sprintf("stale keep entry: %s is now reached", name))
		case isOption && set:
			out = append(out, fmt.Sprintf("stale keep entry: %s is now set", name))
		case strings.TrimSpace(reason) == "":
			out = append(out, fmt.Sprintf("keep entry without a reason: %s", name))
		}
		if isFunc {
			alive.visit(fn)
		}
	}
	for name, fn := range a.funcs {
		if !alive.seen[fn] {
			out = append(out, fmt.Sprintf("unreached function: %s", name))
		}
	}
	for name, set := range a.options {
		if _, kept := keep[name]; !set && !kept {
			out = append(out, fmt.Sprintf("never-set option: %s", name))
		}
	}
	slices.Sort(out)
	return out
}

func TestReachability(t *testing.T) {
	a, err := analyseReachOnce()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(reachKeep)) {
		t.Logf("keep %-45s %s", name, reachKeep[name])
	}
	for _, line := range reachReport(a, reachKeep) {
		t.Error(line)
	}
}

// zkLeaderCallers are the functions that may read zk leadership the way no
// server could, all roles at once ((*Ensemble).Leader, leaderLocked), and
// why: the operation path acts on each server's own election state.
var zkLeaderCallers = map[string]string{
	"zk.(*Ensemble).CommitEpoch": "a gauge",
	"zk.(*Ensemble).Bootstrap":   "setup on a quiescent ensemble",
	"zk.(*Ensemble).Leader":      "leaderLocked under the elector lock",
	// By its own state the stale winner cannot tell: it has heard nothing
	// of the newer epoch (TestStaleWinStepsDown).
	"zk.(*elector).install": "the stale-win check",
}

// reachCallers lists the non-test functions outside benchmark/ whose bodies
// name one of callees, each with the callee it names.
func reachCallers(a *reachAnalysis, callees ...string) []string {
	var out []string
	for caller, fn := range a.funcs {
		d := a.graph.decls[fn]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				callee, ok := d.info.Uses[id].(*types.Func)
				if ok && callee.Pkg() != nil && strings.HasPrefix(callee.Pkg().Path(), reachModule+"/internal/") {
					if name := reachFuncName(callee.Origin()); slices.Contains(callees, name) {
						out = append(out, caller+" -> "+name)
					}
				}
			}
			return true
		})
	}
	slices.Sort(out)
	return out
}

// TestZKLeadershipHasOneSource: no function outside zkLeaderCallers reads
// zk leadership across servers, and each of them still does.
func TestZKLeadershipHasOneSource(t *testing.T) {
	a, err := analyseReachOnce()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, call := range reachCallers(a, "zk.(*Ensemble).Leader", "zk.(*Ensemble).leaderLocked") {
		caller, _, _ := strings.Cut(call, " -> ")
		seen[caller] = true
		if _, ok := zkLeaderCallers[caller]; !ok {
			t.Errorf("%s: leadership read across servers off the list", call)
		}
	}
	for caller := range zkLeaderCallers {
		if !seen[caller] {
			t.Errorf("stale entry: %s no longer reads leadership across servers", caller)
		}
	}
}

// actorForms are the calls by which code runs as an actor — spawning one,
// sleeping, crossing a hop or a server slot on its own stack, waiting for a
// flush, an event, a queue's next item or a group — and which no store's
// non-test code makes: an operation of cassandra, causal or zk runs as a
// record (each package's opRecord), whose steps are continuations, and a
// chain transaction is followed by a mining-timer callback. The exceptions
// are allowedActorForms.
var actorForms = []string{
	"netsim.(*VirtualClock).Go",
	"netsim.(*VirtualClock).Sleep",
	"netsim.(*VirtualClock).SleepUntil",
	"netsim.(*Transport).Travel",
	"netsim.(*Server).Process",
	"netsim.AwaitFlush",
	"netsim.(*Event).Wait",
	"netsim.(*Queue).Get",
	"netsim.(*Group).Wait",
}

// actorStores are the packages actorForms is checked in.
var actorStores = []string{"cassandra.", "causal.", "chain.", "zk."}

// allowedActorForms are the store calls of actorForms that stay: a blocking
// call's (cassandra's Client.Read and Write, zk's QueueClient methods) wait
// for its record to finish, and the drain of a zk proposal's answers by its
// last holder, which takes only answers already put and so never parks.
var allowedActorForms = []string{
	"cassandra.(*Client).run -> netsim.(*Event).Wait",
	"zk.(*opRecord).run -> netsim.(*Event).Wait",
	"zk.(*proposal).release -> netsim.(*Queue).Get",
}

// TestSubstratesHaveNoActorForms: the non-test code of the four stores calls
// none of actorForms but for allowedActorForms, each of which it still calls.
func TestSubstratesHaveNoActorForms(t *testing.T) {
	a, err := analyseReachOnce()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, call := range reachCallers(a, actorForms...) {
		switch {
		case !slices.ContainsFunc(actorStores, func(pkg string) bool { return strings.HasPrefix(call, pkg) }):
		case slices.Contains(allowedActorForms, call):
			seen[call] = true
		default:
			t.Errorf("%s: an actor form in a store", call)
		}
	}
	for _, call := range allowedActorForms {
		if !seen[call] {
			t.Errorf("stale entry: %s is no longer called", call)
		}
	}
}

// The gate's own three properties: a keep entry that names nothing fails,
// an exported method of a facade-aliased type that nothing calls is
// reported, and the report is sorted so two runs diff cleanly.
func TestReachabilitySelfCheck(t *testing.T) {
	a, err := analyseReachOnce()
	if err != nil {
		t.Fatal(err)
	}
	keep := maps.Clone(reachKeep)
	keep["zk.(*Ensemble).NoSuchMethod"] = "left behind by a deletion"
	want := "stale keep entry: zk.(*Ensemble).NoSuchMethod names no function or option"
	if got := reachReport(a, keep); len(got) != 1 || got[0] != want {
		t.Errorf("report with a dangling keep entry = %q, want [%q]", got, want)
	}
	// With an empty keep-table every kept name is a violation: a report
	// long enough for its order to mean something.
	bare := reachReport(a, nil)
	if len(bare) < len(reachKeep) || !slices.IsSorted(bare) {
		t.Errorf("bare report has %d lines for %d keep entries, sorted=%v",
			len(bare), len(reachKeep), slices.IsSorted(bare))
	}

	// A module in miniature: the facade aliases core.Ad, a command calls one
	// of its methods and prints it from a goroutine of its own. Print
	// reaches String through fmt.Stringer; the method nothing calls and the
	// go statement are reported. A file only a build tag selects is not
	// loaded: its second Uncalled would not type-check.
	fixture, err := analyseReach(fstest.MapFS{
		"facade.go": {Data: []byte(`package correctables

import "correctables/internal/core"

type Ad = core.Ad
`)},
		"internal/core/ad.go": {Data: []byte(`package core

type Ad struct{ ID string }

func (a Ad) Render() string { return "<" + a.ID + ">" }
func (a Ad) Uncalled() bool { return a.ID == "" }
func (a Ad) String() string { return a.ID }
`)},
		"internal/core/ad_tagged.go": {Data: []byte(`//go:build invariants

package core

func (a Ad) Uncalled() bool { return true }
`)},
		"cmd/show/main.go": {Data: []byte(`package main

import (
	"fmt"

	"correctables"
)

func main() {
	ad := correctables.Ad{ID: "7"}
	go fmt.Println(ad.Render(), ad)
}
`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFixture := []string{
		"host goroutine: cmd/show/main.go:11:2: go statement",
		"unreached function: core.Ad.Uncalled",
	}
	if got := reachReport(fixture, nil); !slices.Equal(got, wantFixture) {
		t.Errorf("report on the fixture = %q, want %q", got, wantFixture)
	}
}
