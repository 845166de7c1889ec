package vigil_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow names the top-level declarations under internal/ and cmd/
// that no non-test root reaches but that stay: test hooks and reference
// oracles, each with its reason. A key is "<dir>.<Name>", or
// "<dir>.<Type>.<Method>" for a method, or a bare "<dir>" for a package
// that exists only to support tests. An entry whose declaration became
// live or is gone fails the test, so the list cannot rot, and an
// allow-listed declaration's doc comment must say which of the two it is.
var surfaceAllow = map[string]string{
	"internal/des.Scheduler.Executed":    "events per run, which the cut-through tests compare with the per-hop fabric's",
	"internal/fabric.Net.DropRate":       "a link's current rate, read back after injections, resets and schedules",
	"internal/fabric.Net.HopsFused":      "proves a cut-through test case fused hops at all",
	"internal/fabric.Net.HopsStepped":    "the per-hop side of the same count",
	"internal/fabric.Net.Rematerialized": "proves a mid-run change hit a flight",
	"internal/netem.Epoch.linkDrops":     "per-link ground truth derived from the failed flows, the oracle for drop accounting",
	"internal/netem.Sim.rescoreAll":      "the full re-score incremental epochs are held bit-identical to",
	"internal/opt.Instance.Covers":       "checks the set-cover baselines' answers",
	"internal/opt.Instance.Feasible":     "checks the integer program's answers",
	"internal/stats.RNG.BinomialExact":   "the n-trial reference for Binomial and the gated drop sampler",
	"internal/transport.NewProxy":        "puts seeded wire faults between agent and collector in the chaos and crash tests; a package of its own would cycle with transport's in-package tests",
	"internal/transport.Proxy.Heal":      "ends a partition in the chaos tests",
	"internal/transport.Proxy.Partition": "cuts agents off in the chaos tests",
	"internal/transport.Proxy.Retarget":  "points the proxy at a restarted collector in crash tests",
	"internal/transport.SeqOf":           "lets a test's target check the session seqs it received",
	"internal/scenario/conform":          "the statistical conformance suite: only tests import it",
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, heap.Interface,
// io.Reader, net.Conn, net.Listener, http.Handler, …). The scan parses
// only this module, so it cannot see those interfaces; a method of ours
// that implements one is live by name.
var stdlibMethods = []string{
	"String", "Error", "Unwrap", "Is", "As", "Format", "GoString",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close", "ReadFrom", "WriteTo", "Seek",
	"ServeHTTP", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Deadline", "Done", "Err", "Value",
	"LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline",
	"Accept", "Addr", "Timeout", "Temporary", "Network",
}

// TestSurfaceReachable fails on any top-level declaration under internal/
// or cmd/ that only tests reach. It parses every non-test Go file with
// go/parser alone (no type checking) and marks declarations live from the
// roots: every main package's main and init, every declaration in bench/
// (a module of its own that this repo does not edit), the root package's
// exported API, every init function and package-level var, and every
// method whose name appears in an interface. From a live declaration, an
// identifier keeps the same-package declaration of that name, pkg.Name
// keeps the imported package's declaration, and any other x.Name keeps
// every method called Name. The scan errs toward keeping code: a name it
// cannot resolve keeps whatever it might mean.
func TestSurfaceReachable(t *testing.T) {
	s := scanSurface(t, ".")
	unreached := map[string]bool{} // keys and package dirs the roots miss
	for _, d := range s.dead() {
		unreached[d.key], unreached[d.pkg] = true, true
	}
	var problems []string
	for key := range surfaceAllow {
		if !unreached[key] {
			problems = append(problems, "allow-list entry "+key+" names nothing only tests reach (it is live now, or gone): remove the entry")
		}
	}
	// What an allow-listed declaration calls is as alive as it is: a
	// reference oracle's helpers stay with the oracle.
	for _, d := range s.all {
		_, name := surfaceAllow[d.key]
		_, pkg := surfaceAllow[d.pkg]
		if name && !strings.HasPrefix(d.doc.Text(), "Test hook:") && !strings.HasPrefix(d.doc.Text(), "Reference oracle:") {
			problems = append(problems, d.key+" ("+d.pos+") is allow-listed: its doc comment must start \"Test hook:\" or \"Reference oracle:\"")
		}
		if name || pkg {
			s.mark(d)
		}
	}
	s.propagate()
	for _, d := range s.dead() {
		problems = append(problems, d.key+" ("+d.pos+") is reached only by tests: delete it, or allow-list it with a reason")
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// surfaceFieldAllow names the exported fields of the *Config and *Options
// structs under internal/ that only tests set but that stay, each with its
// reason. A key is "<dir>.<Type>.<Field>". As with surfaceAllow, an entry
// whose field gains a non-test setter or is gone fails the test, and an
// allow-listed field's doc comment must start "Test hook:".
var surfaceFieldAllow = map[string]string{
	"internal/cluster.Config.Ct":                       "a budget of 2/s makes the rate limit bind in the traceroute-budget test",
	"internal/cluster.Config.MaxRetries":               "16 retries keep the tag test's connections alive through its 40µs RTOs, so stragglers reach recycled Conns",
	"internal/cluster.Config.RTO":                      "an RTO below the round trip retransmits segments still in flight in the tag test",
	"internal/transport.ClientConfig.BackoffBase":      "fast reconnects in the chaos and crash tests, until the transport takes a clock",
	"internal/transport.ClientConfig.BackoffMax":       "bounds the chaos tests' reconnect waits, until the transport takes a clock",
	"internal/transport.ClientConfig.DeadPolls":        "keeps a silent connection alive through the lost cycle-end test's short polls",
	"internal/transport.ClientConfig.Dial":             "hands the burst test a connection that tears a write in half, until the transport takes a network",
	"internal/transport.ClientConfig.DialTimeout":      "bounds the dials to a closed listener in the cancelled-connect test",
	"internal/transport.ClientConfig.TokenResendEvery": "re-sends tokens sooner in the lost cycle-end and chaos tests",
	"internal/transport.ClientConfig.WaitPoll":         "short polls so the chaos tests recover in milliseconds, until the transport takes a clock",
	"internal/transport.ClientConfig.Window":           "a small unacknowledged-frame bound in the send-window test",
	"internal/transport.ProxyConfig.Cut":               "mid-frame cuts in the chaos soaks",
	"internal/transport.ProxyConfig.Drop":              "swallowed frames in the chaos soaks",
	"internal/transport.ProxyConfig.Dup":               "duplicated frames in the chaos soaks",
	"internal/transport.ProxyConfig.Reorder":           "reordered frames in the chaos soaks",
	"internal/transport.ProxyConfig.Target":            "the collector a test puts the proxy in front of",
}

// TestConfigFieldsSet fails on any exported field of a *Config or *Options
// struct under internal/ that no non-test code sets: a knob read only at
// its default is a constant. A field counts as set by a composite-literal
// key anywhere outside tests, bench/ included, or by an assignment, an
// increment or a &x.F in a package that imports the field's own (a
// package's own `cfg.F = default` line does not count). A key in a T{…} or
// pkg.T{…} literal sets only T's field, through type aliases; a key in a
// literal whose type is elided sets every field of that name, and so does
// an assignment in every package the assigning one imports, so the rule
// errs toward keeping a field. Under -v it logs the number of config
// fields and of exported names (see exportedNames), which CI prints beside
// the non-test line count.
func TestConfigFieldsSet(t *testing.T) {
	s := scanSurface(t, ".")
	keyed := map[string]bool{}               // "<dir>.<Type>.<Field>" some typed literal sets, or a bare field name an elided one sets
	assigned := map[string]map[string]bool{} // field name → the dirs that assign it
	imports := map[string]map[string]bool{}  // dir → the module dirs it imports
	for _, f := range s.files {
		if imports[f.pkg] == nil {
			imports[f.pkg] = map[string]bool{}
		}
		for _, rel := range f.imports {
			imports[f.pkg][rel] = true
		}
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.CompositeLit:
				prefix := "" // the type is elided: keys match fields by name
				if n.Type != nil {
					typ, ok := s.typeName(f, n.Type)
					if !ok {
						return true // a foreign type's, a slice's or a map's keys
					}
					prefix = typ + "."
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							keyed[prefix+k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lhs = []ast.Expr{n.X}
				}
			}
			for _, e := range lhs {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					if _, imported := f.imports[x.Name]; imported {
						continue // pkg.Var, not a field
					}
				}
				if assigned[sel.Sel.Name] == nil {
					assigned[sel.Sel.Name] = map[string]bool{}
				}
				assigned[sel.Sel.Name][f.pkg] = true
			}
			return true
		})
	}
	t.Logf("config fields: %d", len(s.fields))
	t.Logf("exported names: %d", exportedNames(s))
	var problems []string
	unset := map[string]bool{}
	for _, fd := range s.fields {
		set := keyed[fd.name] || keyed[fd.key]
		for dir := range assigned[fd.name] {
			set = set || imports[dir][fd.pkg]
		}
		if set {
			continue
		}
		unset[fd.key] = true
		if _, ok := surfaceFieldAllow[fd.key]; !ok {
			problems = append(problems, fd.key+" ("+fd.pos+") is set by no non-test code: make it a constant, or allow-list it with a reason")
		} else if !strings.HasPrefix(fd.doc.Text(), "Test hook:") {
			problems = append(problems, fd.key+" ("+fd.pos+") is allow-listed: its doc comment must start \"Test hook:\"")
		}
	}
	for key := range surfaceFieldAllow {
		if !unset[key] {
			problems = append(problems, "field allow-list entry "+key+" names no field that only tests set (non-test code sets it now, or it is gone): remove the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// exportedNames counts the exported identifiers that non-test files under
// internal/ declare: package-level constants, variables, types and
// functions, methods, and the fields and interface methods of
// package-level types.
func exportedNames(s *surface) int {
	n := 0
	count := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id.IsExported() {
				n++
			}
		}
	}
	for _, f := range s.files {
		if !strings.HasPrefix(f.pkg, "internal/") {
			continue
		}
		for _, decl := range f.syntax.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				count(decl.Name)
			case *ast.GenDecl:
				for _, sp := range decl.Specs {
					switch sp := sp.(type) {
					case *ast.ValueSpec:
						count(sp.Names...)
					case *ast.TypeSpec:
						count(sp.Name)
						var members *ast.FieldList
						switch typ := sp.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members != nil {
							for _, m := range members.List {
								count(m.Names...)
							}
						}
					}
				}
			}
		}
	}
	return n
}

// TestDesignInventoryMatchesPackages fails unless the tables of DESIGN.md's
// "Package inventory" section name exactly the packages under internal/:
// each table row's first cell is one backquoted package path.
func TestDesignInventoryMatchesPackages(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Package inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Package inventory" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		row, ok := strings.CutPrefix(line, "| `")
		cell, _, cut := strings.Cut(row, "` |")
		if ok && cut && strings.HasPrefix(cell, "internal/") {
			if listed[cell] {
				t.Errorf("DESIGN.md's package inventory lists %s twice", cell)
			}
			listed[cell] = true
		}
	}
	s := scanSurface(t, ".")
	for _, f := range s.files {
		if strings.HasPrefix(f.pkg, "internal/") && !listed[f.pkg] {
			t.Errorf("package %s is missing from DESIGN.md's package inventory", f.pkg)
			listed[f.pkg] = true // report it once
		}
	}
	for pkg := range listed {
		if _, ok := s.pkgs[pkg]; !ok {
			t.Errorf("DESIGN.md's package inventory lists %s, which is not a package", pkg)
		}
	}
}

type surfaceDecl struct {
	key, pkg, pos string
	node          ast.Node
	doc           *ast.CommentGroup
	file          *surfaceFile
	root, live    bool
	checked       bool // under internal/ or cmd/
}

type surfaceFile struct {
	pkg     string            // directory relative to the module root
	imports map[string]string // local name → directory relative to the module root, "" outside it
	syntax  *ast.File
}

// surfaceField is an exported field of a *Config or *Options struct under
// internal/.
type surfaceField struct {
	key, pkg, name, pos string
	doc                 *ast.CommentGroup
}

type surface struct {
	fset    *token.FileSet
	pkgs    map[string]map[string]*surfaceDecl // dir → package-level name → decl (methods are not here)
	methods map[string][]*surfaceDecl          // method name → every method so named
	all     []*surfaceDecl
	queue   []*surfaceDecl
	named   map[string]bool // method names a live selector or an interface mentions
	files   []*surfaceFile
	fields  []surfaceField
	aliases map[string]string // "<dir>.<Name>" of a type alias → "<dir>.<Name>" of its target
}

// scanSurface parses the module under root and marks what its roots reach.
func scanSurface(t testing.TB, root string) *surface {
	s := &surface{
		fset:    token.NewFileSet(),
		pkgs:    map[string]map[string]*surfaceDecl{},
		methods: map[string][]*surfaceDecl{},
		named:   map[string]bool{},
		aliases: map[string]string{},
	}
	var interfaces []*ast.InterfaceType
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(s.fset, p, src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				interfaces = append(interfaces, it)
			}
			return true
		})
		s.add(dir, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, it := range interfaces {
		for _, m := range it.Methods.List {
			for _, n := range m.Names {
				s.name(n.Name)
			}
		}
	}
	for _, n := range stdlibMethods {
		s.name(n)
	}
	for _, d := range s.all {
		if d.root {
			s.mark(d)
		}
	}
	s.propagate()
	return s
}

// propagate marks everything the marked declarations refer to.
func (s *surface) propagate() {
	for len(s.queue) > 0 {
		d := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.walk(d.file, d.node)
	}
}

// add records a file's top-level declarations.
func (s *surface) add(dir string, f *ast.File) {
	file := &surfaceFile{pkg: dir, imports: map[string]string{}, syntax: f}
	s.files = append(s.files, file)
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		rel := "" // a package outside the module
		switch {
		case ip == "vigil":
			rel = "."
		case strings.HasPrefix(ip, "vigil/"):
			rel = strings.TrimPrefix(ip, "vigil/")
		}
		name := path.Base(ip)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		file.imports[name] = rel
	}
	pkg := s.pkgs[dir]
	if pkg == nil {
		pkg = map[string]*surfaceDecl{}
		s.pkgs[dir] = pkg
	}
	main := f.Name.Name == "main"
	newDecl := func(key string, pos token.Pos, node ast.Node, doc *ast.CommentGroup) *surfaceDecl {
		d := &surfaceDecl{
			key: dir + "." + key, pkg: dir, node: node, doc: doc, file: file,
			pos:     s.fset.Position(pos).String(),
			checked: strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "internal/"),
			// bench/ is a module of its own that this repo does not edit;
			// the root package's exported names are the library API.
			root: dir == "bench" || (dir == "." && ast.IsExported(key[strings.LastIndexByte(key, '.')+1:])),
		}
		s.all = append(s.all, d)
		return d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv != nil {
				recv := decl.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				typ := recv.(*ast.Ident).Name
				d := newDecl(typ+"."+decl.Name.Name, decl.Pos(), decl, decl.Doc)
				s.methods[decl.Name.Name] = append(s.methods[decl.Name.Name], d)
				continue
			}
			d := newDecl(decl.Name.Name, decl.Pos(), decl, decl.Doc)
			if decl.Name.Name == "init" || main && decl.Name.Name == "main" {
				d.root = true
			} else {
				pkg[decl.Name.Name] = d
			}
		case *ast.GenDecl:
			switch decl.Tok {
			case token.IMPORT:
			case token.CONST:
				if constEnum(decl) {
					// An iota enum is one declaration: its unused
					// members stay while any member is used.
					d := newDecl(decl.Specs[0].(*ast.ValueSpec).Names[0].Name, decl.Pos(), decl, decl.Doc)
					for _, sp := range decl.Specs {
						for _, n := range sp.(*ast.ValueSpec).Names {
							pkg[n.Name] = d
						}
					}
					continue
				}
				for _, sp := range decl.Specs {
					vs := sp.(*ast.ValueSpec)
					for _, n := range vs.Names {
						pkg[n.Name] = newDecl(n.Name, n.Pos(), vs, cmp.Or(vs.Doc, decl.Doc))
					}
				}
			case token.VAR:
				d := newDecl(decl.Specs[0].(*ast.ValueSpec).Names[0].Name, decl.Pos(), decl, decl.Doc)
				d.root = true
				for _, sp := range decl.Specs {
					for _, n := range sp.(*ast.ValueSpec).Names {
						pkg[n.Name] = d
					}
				}
			case token.TYPE:
				for _, sp := range decl.Specs {
					ts := sp.(*ast.TypeSpec)
					pkg[ts.Name.Name] = newDecl(ts.Name.Name, ts.Pos(), ts, cmp.Or(ts.Doc, decl.Doc))
					if ts.Assign.IsValid() {
						if target, ok := s.typeName(file, ts.Type); ok {
							s.aliases[dir+"."+ts.Name.Name] = target
						}
					}
					s.addFields(dir, ts)
				}
			}
		}
	}
}

// addFields records the exported fields of a *Config or *Options struct
// under internal/.
func (s *surface) addFields(dir string, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok || !strings.HasPrefix(dir, "internal/") ||
		!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
		return
	}
	for _, fl := range st.Fields.List {
		for _, n := range fl.Names {
			if n.IsExported() {
				s.fields = append(s.fields, surfaceField{
					key: dir + "." + ts.Name.Name + "." + n.Name, pkg: dir, name: n.Name,
					pos: s.fset.Position(n.Pos()).String(), doc: fl.Doc,
				})
			}
		}
	}
}

// typeName resolves a type expression in f to "<dir>.<Name>", following
// aliases. It fails for a type outside the module or one that is not a
// plain name.
func (s *surface) typeName(f *surfaceFile, e ast.Expr) (string, bool) {
	var key string
	switch e := e.(type) {
	case *ast.Ident:
		key = f.pkg + "." + e.Name
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok || f.imports[x.Name] == "" {
			return "", false
		}
		key = f.imports[x.Name] + "." + e.Sel.Name
	default:
		return "", false
	}
	for s.aliases[key] != "" {
		key = s.aliases[key]
	}
	return key, true
}

// constEnum reports whether a const block counts on iota or on repeating
// an earlier spec's expression.
func constEnum(decl *ast.GenDecl) bool {
	for _, sp := range decl.Specs {
		vs := sp.(*ast.ValueSpec)
		if len(vs.Values) == 0 {
			return true
		}
		enum := false
		for _, v := range vs.Values {
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					enum = true
				}
				return !enum
			})
		}
		if enum {
			return true
		}
	}
	return false
}

func (s *surface) mark(d *surfaceDecl) {
	if d == nil || d.live {
		return
	}
	d.live = true
	s.queue = append(s.queue, d)
}

// name records that a method called n may be called, keeping every method
// of that name.
func (s *surface) name(n string) {
	if s.named[n] {
		return
	}
	s.named[n] = true
	for _, m := range s.methods[n] {
		s.mark(m)
	}
}

// walk marks what the syntax under n refers to.
func (s *surface) walk(f *surfaceFile, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := f.imports[x.Name]; ok {
					if rel != "" {
						s.mark(s.pkgs[rel][n.Sel.Name])
					}
					return false
				}
			}
			s.name(n.Sel.Name)
		case *ast.Ident:
			s.mark(s.pkgs[f.pkg][n.Name])
		}
		return true
	})
}

// dead lists the checked declarations the roots do not reach, in file order.
func (s *surface) dead() []*surfaceDecl {
	var out []*surfaceDecl
	for _, d := range s.all {
		if d.checked && !d.live {
			out = append(out, d)
		}
	}
	return out
}
