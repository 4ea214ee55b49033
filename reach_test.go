package correctables_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The reachability gate: a feature lives while a root reaches it. Roots are
// every main/init under cmd/ and examples/, everything benchmark/*.go
// declares (the ruler pins exactly what it uses), every exported function
// of the correctables facade and every exported method of a type it
// aliases (the paper's API), plus package initialisation. A non-test
// function no root reaches, or an exported field of an internal *Config /
// *Options / RetryPolicy struct that no non-test file outside its package
// sets, fails TestReachability unless reachKeep names it with a reason; a
// keep entry that is reached, set, or names nothing fails too.

// reachKeep is the keep-table: unreached code that stays, and why. A test
// name as the reason means "the inspection hook that test uses to look
// inside reached state". A kept function keeps its callees alive.
var reachKeep = map[string]string{
	"cassandra.(*Replica).Apply":          "TestPropertyFullQuorumReadsNewest",
	"cassandra.(*Replica).Get":            "TestHintedHandoffReplaysOnRestart",
	"cassandra.(*Replica).Keys":           "TestHintQueueBounded",
	"causal.(*Store).ReplicaEntry":        "TestCrashedBackupResyncsOnRestart",
	"chain.(*Chain).ConfirmationsOf":      "TestConfirmationsOf",
	"chain.(*Chain).Height":               "TestMiningPausesWhileMinerRegionDown",
	"chain.Config.MinerRegion":            "puts the chain under the crash window of the other three stores in TestHistoryCheckedAcrossAllFourBindings",
	"faults.(*Injector).Partitioned":      "TestOverlappingPartitionsCompose",
	"faults.(*Schedule).Horizon":          "TestRandomTracksDeterministicAndComposable",
	"faults.(*Schedule).String":           "TestRandomScheduleDeterministicAndBounded",
	"faults.(*Schedule).UnmatchedCrashes": "TestRandomCrashRestartPairingSeedSweep",
	"load.(*TokenBucket).Tokens":          "TestTokenBucketRefillAcrossVirtualTimeJump",
	"metrics.(*Histogram).Max":            "TestPropertyHistogramInvariants",
	"metrics.(*Histogram).Min":            "TestPropertyHistogramInvariants",
	"netsim.(*Meter).Reset":               "TestMeterDroppedSeparateAndReset",
	"netsim.(*Meter).SnapshotLoad":        "TestMeterLoadStats",
	"netsim.(*Transport).Meter":           "TestCrashDropsAsyncAndCountsOnMeter",
	"ring.(*Ring).Fingerprint":            "TestPlacementDeterministicPerSeed",
	"zk.(*Server).Role":                   "TestElectionStalledByCrashedElectorate",
	"zk.(*Server).Tree":                   "TestProposeReplicatesInOrder",
	"zk.(*Tree).NodeCount":                "TestLeaderCrashElectsMajority",
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

// reachLoader type-checks module packages from source (non-test files; all
// of benchmark/*.go, whose tests must keep compiling too) and defers
// everything else to the standard library's source importer.
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
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
	names, err := filepath.Glob("." + strings.TrimPrefix(path, reachModule) + "/*.go")
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") && path != reachRuler {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return p, err
		}
		p.files = append(p.files, f)
	}
	if err == nil {
		p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	}
	return p, err
}

// reachGraph walks the call graph. Every use of a function's name counts
// as a call; calling an interface method reaches that method on every
// module type implementing the interface (on every type with a method of
// that name, where generics keep go/types from deciding). A method only
// the standard library calls through an interface of its own would need a
// keep entry; the tree has none.
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
}

var analyseReachOnce = sync.OnceValues(analyseReach)

func analyseReach() (*reachAnalysis, error) {
	l := &reachLoader{fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(dir + "/*.go"); len(src) > 0 {
			_, err = l.load(strings.TrimSuffix(reachModule+"/"+filepath.ToSlash(dir), "/."))
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
			if facade && tn.IsAlias() && tn.Exported() {
				for m := range n.Origin().Methods() {
					if m.Exported() {
						roots = append(roots, m)
					}
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					roots = slices.AppendSeq(roots, it.Methods())
				}
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
		}
	}
	for _, d := range inits {
		g.walk(d)
	}
	for _, fn := range roots {
		g.visit(fn)
	}

	a := &reachAnalysis{graph: g, funcs: map[string]*types.Func{}, options: map[string]bool{}}
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
	var out []string
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

// The gate's own two properties: a keep entry that names nothing fails,
// and the report is sorted so two runs diff cleanly.
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
}
