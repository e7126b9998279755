package launchmon_test

import (
	"flag"
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
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// srcFile is one parsed Go file of the module or of benchmark/.
type srcFile struct {
	path    string            // slash-separated, from the repository root
	pkg     string            // import path of its package
	test    bool              // a _test.go file
	built   bool              // the default build context compiles it (race_on_test.go is not)
	imports map[string]string // name in the file → import path
	file    *ast.File
}

// srcFset holds every file these tests parse and every standard-library
// file the type checker reads, so a position names one declaration.
var srcFset = token.NewFileSet()

// sourceTree parses every Go file under internal/, cmd/, examples/ and
// benchmark/, and this package's tests, once for all the tests of this
// package that read code.
var sourceTree = sync.OnceValues(func() ([]*srcFile, error) {
	var files []*srcFile
	for _, root := range []string{".", "internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && root == "." && path != "." {
				return fs.SkipDir
			}
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parseSrc(filepath.ToSlash(path), nil)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
})

// parseSrc parses one file, read from path when src is nil, into a
// srcFile; path is slash-separated from the repository root.
func parseSrc(path string, src any) (*srcFile, error) {
	file, err := parser.ParseFile(srcFset, path, src, 0)
	if err != nil {
		return nil, err
	}
	built := true
	if src == nil {
		if built, err = build.Default.MatchFile(filepath.Split(path)); err != nil {
			return nil, err
		}
	}
	// Both modules root their packages at "launchmon"; an external test
	// package is a package of its own.
	pkg := "launchmon"
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		pkg += "/" + path[:i]
	}
	if strings.HasSuffix(file.Name.Name, "_test") {
		pkg += "_test"
	}
	f := &srcFile{path: path, pkg: pkg, test: strings.HasSuffix(path, "_test.go"), built: built, imports: map[string]string{}, file: file}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := p[strings.LastIndexByte(p, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		f.imports[name] = p
	}
	return f, nil
}

func parsedTree(t *testing.T) []*srcFile {
	t.Helper()
	files, err := sourceTree()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// typeInfo is what go/types resolves in a parsed tree: the object each
// identifier uses and the declaration each object is.
type typeInfo struct {
	uses  map[*ast.Ident]types.Object
	decls map[token.Pos]string   // a declared name's position → its key, "pkg.Name" or "pkg.Type.Method"
	named []*types.TypeName      // the named types of non-test files, whose methods an interface call reaches
	impls map[*types.Func][]impl // implementations, memoized
}

// impl is a named type of the tree, keyed like a declaration, and the
// method an interface method resolves to on it.
type impl struct{ typ, method string }

// typedTree is sourceTree type-checked, once for the tests that resolve
// uses by type.
var typedTree = sync.OnceValues(func() (*typeInfo, error) {
	files, err := sourceTree()
	if err != nil {
		return nil, err
	}
	return typeCheck(files)
})

func typedInfo(t *testing.T) *typeInfo {
	t.Helper()
	ti, err := typedTree()
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter reads the standard library from source, once for every
// tree these tests type-check.
var stdImporter = sync.OnceValue(func() types.Importer { return importer.ForCompiler(srcFset, "source", nil) })

// typeCheck type-checks every package of files that the default build
// context compiles: a package together with its in-package tests (which
// only add declarations, so every importer can see that one form), an
// external test package on its own. A file of an external test package
// that imports no package of the module can name nothing the rules
// resolve, and is left out (this package's own rule tests, which would
// pull go/types into the check). The first type error fails it.
func typeCheck(files []*srcFile) (*typeInfo, error) {
	ti := &typeInfo{uses: map[*ast.Ident]types.Object{}, decls: map[token.Pos]string{}, impls: map[*types.Func][]impl{}}
	byPkg := map[string][]*ast.File{}
	for _, f := range files {
		if !f.built || strings.HasSuffix(f.pkg, "_test") && !importsModule(f) {
			continue
		}
		byPkg[f.pkg] = append(byPkg[f.pkg], f.file)
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				ti.decls[d.Name.Pos()] = declKey(f, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						ti.decls[s.Name.Pos()] = f.pkg + "." + s.Name.Name
					case *ast.ValueSpec:
						for _, n := range s.Names {
							ti.decls[n.Pos()] = f.pkg + "." + n.Name
						}
					}
				}
			}
		}
	}
	std := stdImporter()
	checked := map[string]*types.Package{}
	var firstErr error
	conf := types.Config{Error: func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}}
	info := &types.Info{Uses: ti.uses}
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if byPkg[path] == nil {
			return std.Import(path)
		}
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		pkg, _ := conf.Check(path, srcFset, byPkg[path], info)
		checked[path] = pkg
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !strings.HasSuffix(srcFset.File(tn.Pos()).Name(), "_test.go") {
				ti.named = append(ti.named, tn)
			}
		}
		return pkg, nil
	})
	paths := make([]string, 0, len(byPkg))
	for path := range byPkg {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := conf.Importer.Import(path); err != nil {
			return nil, err
		}
	}
	return ti, firstErr
}

// implementations returns, for an interface method, that method of every
// named type of the tree that implements the interface, itself or through
// its pointer; nil for any other function.
func (ti *typeInfo) implementations(fn *types.Func) []impl {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return nil
	}
	if impls, ok := ti.impls[fn]; ok {
		return impls
	}
	iface := recv.Type().Underlying().(*types.Interface)
	impls := []impl{}
	for _, tn := range ti.named {
		for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			if types.IsInterface(typ) || !types.Implements(typ, iface) {
				continue
			}
			impls = append(impls, impl{ti.key(tn), ti.key(types.NewMethodSet(typ).Lookup(fn.Pkg(), fn.Name()).Obj())})
			break
		}
	}
	ti.impls[fn] = impls
	return impls
}

// importsModule reports whether f imports a package of the module.
func importsModule(f *srcFile) bool {
	for _, p := range f.imports {
		if strings.HasPrefix(p, "launchmon/") {
			return true
		}
	}
	return false
}

// reaches returns the keys of the declarations a use of fn names: its
// own, or the generic one an instance comes from; for an interface method,
// its implementations.
func (ti *typeInfo) reaches(fn *types.Func) []string {
	impls := ti.implementations(fn)
	if impls == nil {
		return []string{ti.key(fn)}
	}
	keys := make([]string, len(impls))
	for i, im := range impls {
		keys[i] = im.method
	}
	return keys
}

// key returns the key of the declaration a use of obj names, "" when the
// tree does not declare it.
func (ti *typeInfo) key(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	return ti.decls[obj.Pos()]
}

// TestArchitecture holds, as code, the design rules DESIGN.md states
// (DESIGN.md "Rules held by tests"). Each subtest reads the source tree,
// parsed and, for exported and reachable, type-checked; none builds or
// runs a package. When one fails, the
// message names the site and the list to change: a new entry needs the
// reason the rule does not apply to it.
func TestArchitecture(t *testing.T) {
	files := parsedTree(t)
	t.Run("goroutines", func(t *testing.T) { checkGoroutines(t, files) })
	t.Run("scheduler_records", func(t *testing.T) { checkSchedulerRecords(t, files) })
	t.Run("imports", func(t *testing.T) { checkImports(t, files) })
	t.Run("exported", func(t *testing.T) {
		for _, msg := range unexported(files, typedInfo(t), exportedReasons) {
			t.Error(msg)
		}
	})
	t.Run("reachable", func(t *testing.T) {
		for _, msg := range unreached(files, typedInfo(t), unreachedReasons) {
			t.Error(msg)
		}
	})
	t.Run("knobs", TestEveryKnobHasASetter)
}

// goroutineSites lists every place the program starts a goroutine — a go
// statement or a vtime.Sim.Go call — by file and enclosing function, with
// its owner and why it is one: the daemon and session state machines run
// on the scheduler, so a new simulated thread per daemon, link or
// operation moves -million's goroutines-peak and is a design change.
var goroutineSites = []struct{ site, why string }{
	{"internal/vtime/vtime.go (*Sim).start", "the one go statement: every simulated thread is a goroutine that the scheduler hands the run token"},
	{"internal/cluster/cluster.go (*Proc).run", "a simulated process's main; one a daemon"},
	{"internal/rm/rpc.go Serve", "an RM server's handler of one accepted request connection, ended by the connection"},
	{"internal/rm/job.go (*job).directKill", "the kill of one node when the launcher is lost, joined by the caller's WaitGroup"},
	{"internal/rm/skeleton.go (*Skeleton).startJob", "a job's reaper, which serves control once its launcher dies"},
	{"internal/rm/alps/star.go star.each", "aprun's concurrent request to one node, answered on the caller's channel"},
	{"internal/engine/engine.go (*engine).main", "the engine's watch on the traced launcher, beside its command loop"},
	{"internal/core/core.go newFrontEnd", "the reaper of a tool process's session mux, one a front-end process"},
	{"internal/bench/scenario.go Scenario.Run", "the rig's front-end boot; launch_million pins the goroutine peak it adds"},
	{"internal/bench/concurrent.go measureConcurrent", "one concurrent tool session of the sweep"},
	{"internal/bench/contention.go measureContention", "one tool's daemon side of the contention sweep"},
	{"internal/bench/contention.go contentionFE", "one tool's front-end side of the contention sweep"},
	{"cmd/jobsnap/main.go main", "the command's boot"},
	{"cmd/statlaunch/main.go main", "the command's boot"},
	{"examples/middleware/main.go main", "the example's boot"},
	{"examples/quickstart/main.go main", "the example's boot"},
}

func checkGoroutines(t *testing.T, files []*srcFile) {
	listed := map[string]int{}
	for _, g := range goroutineSites {
		listed[g.site]++
	}
	found := map[string]int{}
	for _, f := range programFiles(files) {
		for _, d := range f.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := f.path + " " + funcName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					found[site]++
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" && len(n.Args) == 2 {
						found[site]++
					}
				}
				return true
			})
		}
	}
	for site, n := range found {
		if n > listed[site] {
			t.Errorf("%s starts %d goroutine(s), %d listed: add it to goroutineSites with its owner and reason, or run it on the scheduler", site, n, listed[site])
		}
	}
	for site, n := range listed {
		if found[site] < n {
			t.Errorf("goroutineSites lists %d at %s, found %d: remove the entry", n, site, found[site])
		}
	}
}

// schedulerRecords are the types whose methods run as scheduler callbacks
// (DESIGN.md "Events are objects"): a plane operation and its link demux,
// a walk of Comm's collectives, a forming rank with its seed stream and its
// owner's steps, and the front end's session step and connection handlers.
// A blocking call there hangs or serializes the simulation, so none may call
// one, apart from the one wait each record's owner makes.
var schedulerRecords = map[string]bool{
	"launchmon/internal/iccl.planeOp":        true, // and every op type that embeds it
	"launchmon/internal/iccl.linkDemux":      true,
	"launchmon/internal/iccl.tagLink":        true,
	"launchmon/internal/iccl.SerialFramer":   true,
	"launchmon/internal/iccl.walk":           true,
	"launchmon/internal/iccl.Forming":        true,
	"launchmon/internal/iccl.seedSplitter":   true,
	"launchmon/internal/core.rxStreams":      true,
	"launchmon/internal/core.readying":       true,
	"launchmon/internal/core.Session.step":   true,
	"launchmon/internal/core.Session.onLink": true,
}

// ownerWaits are the methods where a record's owner waits for it, once.
var ownerWaits = map[string]bool{
	"launchmon/internal/iccl.planeOp.wait":      true,
	"launchmon/internal/iccl.Forming.wait":      true,
	"launchmon/internal/iccl.walk.wait":         true,
	"launchmon/internal/core.rxStreams.recvUsr": true,
}

// blockFreePkg is the package whose functions, records or not, block only
// in an ownerWaits method: iccl's collectives are records, and a daemon's
// goroutine waits on them once a call.
const blockFreePkg = "launchmon/internal/iccl"

// blockingCalls are the methods that park the calling goroutine.
var blockingCalls = map[string]bool{
	"Recv": true, "RecvTimeout": true, "RecvMessage": true, "Wait": true, "Sleep": true,
	"Accept": true, "Compute": true, "Expect": true, "Dial": true,
}

func checkSchedulerRecords(t *testing.T, files []*srcFile) {
	records := map[string]bool{}
	for k := range schedulerRecords {
		records[k] = true
	}
	declared := map[string]bool{} // types and methods, to find a stale entry
	// An op type is a record when it embeds planeOp.
	for _, f := range programFiles(files) {
		ast.Inspect(f.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			declared[f.pkg+"."+ts.Name.Name] = true
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if id, ok := fld.Type.(*ast.Ident); ok && len(fld.Names) == 0 && records[f.pkg+"."+id.Name] {
						records[f.pkg+"."+ts.Name.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range programFiles(files) {
		for _, d := range f.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil && f.pkg != blockFreePkg {
				continue
			}
			typ := f.pkg
			if fn.Recv != nil {
				typ += "." + recvName(fn)
			}
			method := typ + "." + fn.Name.Name
			declared[method] = true
			if !records[typ] && !records[method] && f.pkg != blockFreePkg || ownerWaits[method] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && blockingCalls[sel.Sel.Name] {
						t.Errorf("%s: %s calls %s, which blocks: a scheduler record must not wait, and in %s only an ownerWaits method may", f.path, funcName(fn), sel.Sel.Name, blockFreePkg)
					}
				}
				return true
			})
		}
	}
	for _, list := range []map[string]bool{schedulerRecords, ownerWaits} {
		for k := range list {
			if !declared[k] {
				t.Errorf("%s is not declared: update schedulerRecords and ownerWaits", k)
			}
		}
	}
}

// importGraph pins every edge between the module's internal packages
// (non-test files). The stack is layered: the simulator (vtime, simnet,
// cluster) and the codecs (lmonp, proctab, coll, obs) sit under iccl,
// transport, rm and engine, which sit under core; tools and bench are on
// top. A new edge is a design change: add it here with the reason in the
// commit, unless it breaks a rule of layerRules.
var importGraph = map[string]string{
	"bench":         "cluster coll core dpcl engine health iccl lmonp obs perfmodel proctab rm rm/alps rm/bgl rm/slurm rsh simnet tools/jobsnap tools/oss tools/stat vtime",
	"cluster":       "simnet vtime",
	"coll":          "lmonp",
	"core":          "cluster coll engine health hostlist iccl lmonp obs proctab rm simnet transport vtime",
	"dpcl":          "cluster lmonp rm simnet",
	"engine":        "cluster health lmonp proctab rm simnet transport",
	"health":        "cluster iccl lmonp obs vtime",
	"hostlist":      "",
	"iccl":          "cluster coll lmonp obs proctab simnet vtime",
	"lmonp":         "",
	"obs":           "",
	"perfmodel":     "engine",
	"proctab":       "lmonp",
	"rm":            "cluster lmonp proctab simnet vtime",
	"rm/alps":       "cluster hostlist lmonp proctab rm simnet vtime",
	"rm/bgl":        "cluster rm rm/slurm",
	"rm/slurm":      "cluster hostlist lmonp proctab rm simnet",
	"rsh":           "cluster lmonp rm simnet vtime",
	"simnet":        "vtime",
	"tbon":          "cluster lmonp rsh simnet",
	"tools":         "",
	"tools/jobsnap": "cluster core lmonp rm",
	"tools/oss":     "cluster core dpcl lmonp proctab rm",
	"tools/stat":    "cluster core lmonp rm rsh tbon",
	"transport":     "lmonp obs simnet vtime",
	"vtime":         "",
}

// layerRules are the edges no update of importGraph may add: the virtual
// clock, the wire codec and the metrics registry depend on nothing of the
// module, and the daemon collectives know nothing of the session above
// them.
var layerRules = []struct{ from, to, why string }{
	{"vtime", "*", "the scheduler is the bottom layer"},
	{"lmonp", "*", "the wire codec is shared by every layer"},
	{"obs", "*", "the metrics registry is shared by every layer"},
	{"iccl", "core", "the ICCL is the minimal layer under the BE API"},
}

func checkImports(t *testing.T, files []*srcFile) {
	const internal = "launchmon/internal/"
	got := map[string]map[string]bool{}
	for _, f := range programFiles(files) {
		if !strings.HasPrefix(f.pkg, internal) {
			continue
		}
		from := strings.TrimPrefix(f.pkg, internal)
		if got[from] == nil {
			got[from] = map[string]bool{}
		}
		for _, p := range f.imports {
			if strings.HasPrefix(p, internal) {
				got[from][strings.TrimPrefix(p, internal)] = true
			}
		}
	}
	for from, tos := range got {
		want, ok := importGraph[from]
		if !ok {
			t.Errorf("package %s is not in importGraph: add it with its imports", from)
			continue
		}
		pinned := map[string]bool{}
		for _, to := range strings.Fields(want) {
			pinned[to] = true
		}
		for to := range tos {
			for _, r := range layerRules {
				if r.from == from && (r.to == "*" || r.to == to) {
					t.Errorf("%s imports %s: %s", from, to, r.why)
				}
			}
			if !pinned[to] {
				t.Errorf("%s imports %s, an edge importGraph does not pin", from, to)
			}
		}
		for to := range pinned {
			if !tos[to] {
				t.Errorf("importGraph pins %s -> %s, which no file imports: remove it", from, to)
			}
		}
	}
	for from := range importGraph {
		if got[from] == nil {
			t.Errorf("importGraph names %s, which has no non-test file: remove it", from)
		}
	}
}

// programFiles are the non-test files of internal/, cmd/ and examples/.
func programFiles(files []*srcFile) []*srcFile {
	var out []*srcFile
	for _, f := range files {
		if !f.test && !strings.HasPrefix(f.path, "benchmark/") {
			out = append(out, f)
		}
	}
	return out
}

// funcName is a declaration's name as Go prints a method: "(*T).M", "T.M".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	if _, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
		return "(*" + recvName(fn) + ")." + fn.Name.Name
	}
	return recvName(fn) + "." + fn.Name.Name
}

// exportedReasons lists the exported names of internal/ that no program
// file (non-test, in internal/, cmd/ or examples/) outside their package
// uses, each with why it stays exported; any other such name is
// unexported or deleted, as the simplicity guide counts neither tests nor
// examples as callers. The list may only shrink: an entry whose name is
// gone or now has a user fails the test. A reason is one of:
const (
	paperAPI       = "paper API"       // the FE/BE/MW API a tool programs against
	testHook       = "test hook"       // another package's tests use it (checked)
	faultInjection = "fault injection" // DESIGN.md "Injection"
	benchmarkName  = "benchmark"       // benchmark/ names it (checked)
)

var exportedReasons = map[string]string{
	"internal/bench.Run":                  testHook,
	"internal/bench.Scenario":             testHook,
	"internal/bench.Scenario.Run":         testHook,
	"internal/cluster.Cluster.KillNode":   faultInjection,
	"internal/cluster.Cluster.NodeByName": testHook,
	"internal/cluster.ErrProcLimit":       testHook,
	"internal/cluster.Node.Fail":          faultInjection,
	"internal/cluster.Node.FindProcByExe": testHook,
	"internal/cluster.Proc.Environ":       testHook,
	"internal/coll.Frame.EncodeMsg":       benchmarkName,
	"internal/core.ErrNotMaster":          paperAPI,
	"internal/core.ErrSessionClosed":      paperAPI,
	"internal/core.ObsDefault":            benchmarkName,
	"internal/core.Session.AllocTag":      benchmarkName,
	"internal/core.Session.MWDaemons":     paperAPI,
	"internal/core.Session.RecvFromMW":    paperAPI,
	"internal/core.Session.ReduceTag":     benchmarkName,
	"internal/core.Session.SendToMW":      paperAPI,
	"internal/core.daemonSession.Scatter": paperAPI,
	"internal/core.daemonSession.Size":    paperAPI,
	"internal/engine.MWChain":             testHook,
	"internal/engine.MarkE1":              benchmarkName,
	"internal/engine.MarkE4":              benchmarkName,
	"internal/engine.MarkMW6":             testHook,
	"internal/engine.MarkMWSeedFwd":       testHook,
	"internal/engine.MarkMWSeedValid":     testHook,
	"internal/engine.MarkSeedFwd":         benchmarkName,
	"internal/engine.MarkSeedValid":       benchmarkName,
	"internal/iccl.Bootstrap":             benchmarkName,
	"internal/iccl.Parent":                testHook,
	"internal/iccl.Plane.AllGather":       benchmarkName,
	"internal/iccl.Plane.AllReduce":       benchmarkName,
	"internal/iccl.Plane.ReduceTag":       benchmarkName,
	"internal/lmonp.ErrTooLarge":          testHook,
	"internal/lmonp.Msg.Encode":           benchmarkName,
	"internal/lmonp.Read":                 benchmarkName,
	"internal/lmonp.Write":                benchmarkName,
	"internal/proctab.Assembler.Finish":   benchmarkName,
	"internal/proctab.Table.Validate":     benchmarkName,
	"internal/rm.ErrInsufficient":         testHook,
	"internal/rm.PublishProctab":          testHook,
	"internal/rm.RemoteError":             testHook,
	"internal/rm/alps.ApinitPort":         testHook,
	"internal/rm/slurm.CtrlPort":          testHook,
	"internal/rm/slurm.SlurmdPort":        testHook,
	"internal/rsh.Port":                   testHook,
	"internal/transport.Endpoint.Accept":  benchmarkName,
	"internal/transport.Hello":            benchmarkName,
	"internal/transport.Mux.Sessions":     testHook,
	"internal/transport.ReadHello":        benchmarkName,
	"internal/transport.WriteHello":       benchmarkName,
	"internal/vtime.Sim.AtEvent":          testHook,
	"internal/vtime.Sim.Live":             benchmarkName,
	"internal/vtime.Sim.Parks":            testHook,
	"internal/vtime.Sim.SetSpawnObserver": testHook,
	"internal/vtime.Sim.Stats":            testHook,
	"internal/vtime.Sim.Stopped":          testHook,
}

// unexported finds each exported package-level name and method of
// internal/ and where it is used, resolved by type: pkg.Name, and a
// selector's field or method of the operand's type, so a same-named method
// elsewhere is no use. A type a used name's signature mentions is used. A
// method needs no caller of its own when its type implements an interface
// of the tree that declares it, or it is a stdlibMethods method. It reports
// each name neither used by a program file (non-test, in internal/, cmd/
// or examples/) outside its package nor listed in reasons, and each entry
// of reasons that is stale or whose reason does not hold.
func unexported(files []*srcFile, ti *typeInfo, reasons map[string]string) []string {
	type decl struct {
		file string
		refs []string // the names its signature mentions
	}
	declared := map[string]*decl{} // "pkg.Name" or "pkg.Type.Method"
	// An interface's methods: those a type of the tree implements need no
	// caller.
	implements := map[string]bool{}
	for _, tn := range ti.named {
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				for _, k := range ti.reaches(iface.Method(i)) {
					implements[k] = true
				}
			}
		}
	}
	for _, f := range programFiles(files) {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		sig := func(n ast.Node) []string {
			var refs []string
			if n == nil {
				return nil
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && ti.uses[id] != nil {
					refs = append(refs, ti.key(ti.uses[id]))
				}
				return true
			})
			return refs
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					declared[declKey(f, d)] = &decl{f.path, sig(d.Type)}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declared[f.pkg+"."+s.Name.Name] = &decl{f.path, sig(s.Type)}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								declared[f.pkg+"."+n.Name] = &decl{f.path, sig(s.Type)}
							}
						}
					}
				}
			}
		}
	}
	// used maps each name to the kinds of file outside its package that
	// use it: "program", "test" or "benchmark".
	used := map[string]map[string]bool{}
	for _, f := range files {
		kind := "program"
		switch {
		case strings.HasPrefix(f.path, "benchmark/"):
			kind = "benchmark"
		case f.test:
			kind = "test"
		}
		mark := func(k string) {
			if declared[k] == nil || strings.HasPrefix(k, f.pkg+".") {
				return
			}
			if used[k] == nil {
				used[k] = map[string]bool{}
			}
			used[k][kind] = true
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || ti.uses[id] == nil {
				return true
			}
			if fn, ok := ti.uses[id].(*types.Func); ok {
				for _, k := range ti.reaches(fn) {
					mark(k)
				}
			} else {
				mark(ti.key(ti.uses[id]))
			}
			return true
		})
	}
	live := map[string]bool{}
	var visit func(k string)
	visit = func(k string) {
		if live[k] || declared[k] == nil {
			return
		}
		live[k] = true
		for _, r := range declared[k].refs {
			visit(r)
		}
	}
	for k := range declared {
		if used[k]["program"] {
			visit(k)
		}
	}
	var msgs []string
	for k, d := range declared {
		name := strings.TrimPrefix(k, "launchmon/")
		parts := strings.Split(k, ".")
		if live[k] || implements[k] || len(parts) == 3 && slices.Contains(stdlibMethods, parts[2]) {
			continue
		}
		switch why, ok := reasons[name]; {
		case !ok:
			msgs = append(msgs, fmt.Sprintf("%s (%s) has no user outside its package: unexport or delete it", name, d.file))
		case why == testHook && !used[k]["test"]:
			msgs = append(msgs, fmt.Sprintf("%s is listed as a %s, but no other package's test uses it: unexport it and remove the entry", name, why))
		case why == benchmarkName && !used[k]["benchmark"]:
			msgs = append(msgs, fmt.Sprintf("%s is listed as named by benchmark/, which does not name it: unexport it and remove the entry", name))
		}
	}
	for name := range reasons {
		if k := "launchmon/" + name; declared[k] == nil || live[k] {
			msgs = append(msgs, fmt.Sprintf("exportedReasons lists %s, which is gone or now has a user: remove the entry", name))
		}
	}
	slices.Sort(msgs)
	return msgs
}

// stdlibMethods are the methods the standard library calls through its
// interfaces for errors and Stringers; a declaration of one is used.
var stdlibMethods = []string{"Error", "String", "Is", "Unwrap"}

// unreachedReasons lists the functions and methods of internal/, cmd/ and
// examples/ that no program reaches (unreached), each with why it stays;
// any other such function is deleted. Like exportedReasons the list may
// only shrink: an entry that is gone or now reached fails the test, and a
// test hook must be reached from a test. The reasons are paperAPI,
// testHook and faultInjection.
var unreachedReasons = map[string]string{
	"internal/cluster.Cluster.KillNode":    faultInjection,
	"internal/cluster.Node.FindProcByExe":  testHook,
	"internal/cluster.Proc.Environ":        testHook,
	"internal/cluster.Proc.args":           testHook,
	"internal/core.Session.MWDaemons":      paperAPI,
	"internal/core.Session.RecvFromMW":     paperAPI,
	"internal/core.Session.SendToMW":       paperAPI,
	"internal/core.daemonSession.Scatter":  paperAPI,
	"internal/core.daemonSession.Size":     paperAPI,
	"internal/core.daemonSession.timeline": testHook,
	"internal/iccl.Comm.Scatter":           paperAPI,
	"internal/lmonp.Msg.wireSize":          testHook,
	"internal/obs.Gauge.set":               testHook,
	"internal/rm.PublishProctab":           testHook,
	"internal/rm.Skeleton.DebugEventCount": testHook,
	"internal/rm.job.Nodes":                testHook,
	"internal/transport.Mux.Sessions":      testHook,
	"internal/vtime.Sim.AtEvent":           testHook,
	"internal/vtime.Sim.Parks":             testHook,
	"internal/vtime.Sim.SetSpawnObserver":  testHook,
	"internal/vtime.Sim.Stats":             testHook,
	"internal/vtime.Sim.Stopped":           testHook,
}

// reach walks the call graph by type. It starts from every init, every
// main under cmd/, examples/ and benchmark/, every package-level var and
// const, every stdlibMethods method and, with tests, every declaration of
// a test file. An identifier reaches what it resolves to: a function or a
// method — for a selector, the method of the operand's type, so a
// same-named method of another type is not reached — the generic
// declaration of an instance, and a named type, whose declaration is
// walked in turn. An interface method reaches its implementations
// (ti.implementations) on the types the walk has named, as the linker
// keeps a method only of a type some reached code converts. It returns
// every other function of the non-test files, keyed "pkg.Name" or
// "pkg.Type.Method", and whether the walk reached it.
func reach(files []*srcFile, ti *typeInfo, tests bool) map[string]bool {
	funcs := map[string]*ast.FuncDecl{}
	typeDecls := map[string]*ast.TypeSpec{}
	var work []ast.Node
	for _, f := range files {
		if !f.built || f.test && !tests {
			continue
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE || f.test {
					work = append(work, d)
					continue
				}
				for _, s := range d.Specs {
					ts := s.(*ast.TypeSpec)
					typeDecls[f.pkg+"."+ts.Name.Name] = ts
				}
			case *ast.FuncDecl:
				switch {
				case f.test,
					d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && !strings.HasPrefix(f.path, "internal/")),
					d.Recv != nil && slices.Contains(stdlibMethods, d.Name.Name):
					work = append(work, d)
				default:
					funcs[declKey(f, d)] = d
				}
			}
		}
	}
	reached := make(map[string]bool, len(funcs))
	for k := range funcs {
		reached[k] = false
	}
	mark := func(k string) {
		if d, ok := funcs[k]; ok && !reached[k] {
			reached[k] = true
			work = append(work, d)
		}
	}
	named := map[string]bool{}
	pending := map[string][]string{} // a type not yet named → interface methods called on it
	called := map[*types.Func]bool{}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := ti.uses[id].(type) {
			case *types.TypeName:
				if k := ti.key(obj); typeDecls[k] != nil && !named[k] {
					named[k] = true
					work = append(work, typeDecls[k])
					for _, m := range pending[k] {
						mark(m)
					}
				}
			case *types.Func:
				obj = obj.Origin()
				impls := ti.implementations(obj)
				if impls == nil {
					mark(ti.key(obj))
				} else if !called[obj] {
					called[obj] = true
					for _, im := range impls {
						if named[im.typ] {
							mark(im.method)
						} else {
							pending[im.typ] = append(pending[im.typ], im.method)
						}
					}
				}
			}
			return true
		})
	}
	return reached
}

// declKey is a function's key, "pkg.Name" or "pkg.Type.Method".
func declKey(f *srcFile, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return f.pkg + "." + fn.Name.Name
	}
	return f.pkg + "." + recvName(fn) + "." + fn.Name.Name
}

// unreached reports each function or method of internal/, cmd/ and
// examples/ that reach does not reach from a program and reasons does not
// list, and each entry of reasons that is stale or has a reason the list
// does not allow.
func unreached(files []*srcFile, ti *typeInfo, reasons map[string]string) []string {
	var msgs []string
	program, withTests := reach(files, ti, false), reach(files, ti, true)
	for k, ok := range program {
		name := strings.TrimPrefix(k, "launchmon/")
		checked := strings.HasPrefix(name, "internal/") || strings.HasPrefix(name, "cmd/") || strings.HasPrefix(name, "examples/")
		if _, listed := reasons[name]; !ok && !listed && checked {
			msgs = append(msgs, fmt.Sprintf("%s is reached from no program: delete it, or list it in unreachedReasons with its reason", name))
		}
	}
	for name, why := range reasons {
		k := "launchmon/" + name
		reachedByProgram, declared := program[k]
		switch {
		case !declared || reachedByProgram:
			msgs = append(msgs, fmt.Sprintf("unreachedReasons lists %s, which is gone or now reached: remove the entry", name))
		case why != paperAPI && why != testHook && why != faultInjection:
			msgs = append(msgs, fmt.Sprintf("unreachedReasons gives %s the reason %q: only %q, %q or %q may keep an unreached function", name, why, paperAPI, testHook, faultInjection))
		case why == testHook && !withTests[k]:
			msgs = append(msgs, fmt.Sprintf("unreachedReasons lists %s as a %s, but no test reaches it: delete it and the entry", name, why))
		}
	}
	slices.Sort(msgs)
	return msgs
}

// TestArchitectureReachableSeeded runs the reachable rule on a small
// synthetic tree: clean with its three unreached functions listed, and
// failing on an unlisted one — among them a method whose only call is of a
// same-named method of another type — on an entry that is reached or gone
// — among them a method reached only through an interface and a generic
// function reached only through an instance — on a test hook no test
// reaches and on a reason the list does not allow. The exported rule runs
// on the same tree: clean with the same-named method listed, failing
// without it.
func TestArchitectureReachableSeeded(t *testing.T) {
	var files []*srcFile
	for path, src := range map[string]string{
		"cmd/tool/main.go": `package main
import "launchmon/internal/lib"
var t lib.T
var i lib.I = lib.W{}
var v lib.V
func main() { lib.Used(); t.M(); i.N(); lib.G(1) }`,
		"internal/lib/lib.go": `package lib
type T struct{}
func (T) M() { helper() }
type V struct{}
func (V) M() {}
type I interface{ N() }
type W struct{}
func (W) N() {}
func G[E any](E) {}
func Used() {}
func helper() {}
func Dead() {}
func Hook() {}`,
		"internal/lib/lib_test.go": `package lib
import "testing"
func TestHook(t *testing.T) { Hook() }`,
	} {
		f, err := parseSrc(path, src)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	ti, err := typeCheck(files)
	if err != nil {
		t.Fatal(err)
	}
	listed := func(extra map[string]string) map[string]string {
		reasons := map[string]string{"internal/lib.Dead": paperAPI, "internal/lib.Hook": testHook, "internal/lib.V.M": paperAPI}
		for k, v := range extra {
			if v == "" {
				delete(reasons, k)
			} else {
				reasons[k] = v
			}
		}
		return reasons
	}
	if msgs := unreached(files, ti, listed(nil)); len(msgs) != 0 {
		t.Fatalf("clean tree fails: %q", msgs)
	}
	for name, extra := range map[string]map[string]string{
		"unreached and unlisted":             {"internal/lib.Dead": ""},
		"called only by a same-named method": {"internal/lib.V.M": ""},
		"listed but reached":                 {"internal/lib.helper": paperAPI},
		"listed but reached by an interface": {"internal/lib.W.N": paperAPI},
		"listed but reached by an instance":  {"internal/lib.G": paperAPI},
		"listed but gone":                    {"internal/lib.Gone": paperAPI},
		"hook no test reaches":               {"internal/lib.Dead": testHook},
		"reason not allowed":                 {"internal/lib.Dead": benchmarkName},
	} {
		if msgs := unreached(files, ti, listed(extra)); len(msgs) != 1 {
			t.Errorf("%s: got %q, want one failure", name, msgs)
		}
	}
	exported := map[string]string{"internal/lib.Dead": paperAPI, "internal/lib.Hook": paperAPI, "internal/lib.V.M": paperAPI}
	if msgs := unexported(files, ti, exported); len(msgs) != 0 {
		t.Fatalf("exported rule fails on the clean tree: %q", msgs)
	}
	delete(exported, "internal/lib.V.M")
	if msgs := unexported(files, ti, exported); len(msgs) != 1 || !strings.Contains(msgs[0], "lib.V.M") {
		t.Errorf("a method used only through a same-named one: got %q, want V.M to fail", msgs)
	}
}

// TestReachableMatchesLinker holds the reachable rule to the linker's
// dead-code pass. Its arguments are the -dumpdep output of every program
// of cmd/, examples/ and benchmark/, built with inlining off (CI's
// "Reachability matches the linker" step): each function of internal/
// that no program links must be in unreachedReasons, and none that one
// links may be. A generic function is skipped: the linker names only its
// shape instances. Without arguments it skips.
func TestReachableMatchesLinker(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("no -dumpdep output given; see CI's \"Reachability matches the linker\" step")
	}
	linked := map[string]bool{}
	for _, path := range flag.Args() {
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if from, to, ok := strings.Cut(line, " -> "); ok {
				linked[linkerKey(from)], linked[linkerKey(to)] = true, true
			}
		}
	}
	for _, f := range programFiles(parsedTree(t)) {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Type.TypeParams != nil || fn.Recv != nil && recvGeneric(fn) {
				continue
			}
			k := declKey(f, fn)
			name := strings.TrimPrefix(k, "launchmon/")
			_, listed := unreachedReasons[name]
			switch {
			case linked[k] && listed:
				t.Errorf("unreachedReasons lists %s, which a program links", name)
			case !linked[k] && !listed && fn.Name.Name != "init":
				t.Errorf("%s is linked into no program and not in unreachedReasons", name)
			}
		}
	}
}

// linkerKey turns a linker symbol into a declaration key:
// "launchmon/internal/iccl.(*Plane).Receive" is
// "launchmon/internal/iccl.Plane.Receive". Other symbols match no key.
func linkerKey(sym string) string {
	sym = strings.Replace(sym, "(*", "", 1)
	return strings.Replace(sym, ").", ".", 1)
}

// recvGeneric reports whether a method's receiver type has type parameters.
func recvGeneric(fn *ast.FuncDecl) bool {
	typ := fn.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch typ.(type) {
	case *ast.IndexExpr, *ast.IndexListExpr:
		return true
	}
	return false
}

func recvName(d *ast.FuncDecl) string {
	typ := d.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch x := typ.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return x.X.(*ast.Ident).Name
	case *ast.IndexListExpr:
		return x.X.(*ast.Ident).Name
	}
	return "?"
}
