package vigil_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// surfaceAllow names the declarations under internal/ and cmd/ that no
// non-test root reaches but that stay: test hooks, reference oracles and
// the methods a library user calls through an interface, each with its
// reason. A key is "<dir>.<Name>", or "<dir>.<Type>.<Method>" for a method
// (an interface's included), or a bare "<dir>" for a package that exists
// only to support tests. An entry whose declaration became live or is gone
// fails the test, so the list cannot rot, and an allow-listed
// declaration's doc comment must say which of the three it is.
var surfaceAllow = map[string]string{
	"internal/des.Scheduler.At":             "scripts closure events around the component under test",
	"internal/des.Scheduler.Executed":       "events per run, which the cut-through tests compare with the per-hop fabric's",
	"internal/fabric.Net.DropRate":          "a link's current rate, read back after injections, resets and schedules",
	"internal/fabric.Net.HopsFused":         "proves a cut-through test case fused hops at all",
	"internal/fabric.Net.HopsStepped":       "the per-hop side of the same count",
	"internal/fabric.Net.Rematerialized":    "proves a mid-run change hit a flight",
	"internal/netem.Epoch.linkDrops":        "per-link ground truth derived from the failed flows, the oracle for drop accounting",
	"internal/netem.Sim.rescoreAll":         "the full re-score incremental epochs are held bit-identical to",
	"internal/opt.Instance.Covers":          "checks the set-cover baselines' answers",
	"internal/opt.Instance.Feasible":        "checks the integer program's answers",
	"internal/schedule.ConstantRate.RateAt": "a library user hands a vigil.ConstantRate to Simulation.ScheduleFailure as a RateSchedule",
	"internal/stats.RNG.BinomialExact":      "the n-trial reference for Binomial and the gated drop sampler",
	"internal/transport.Proxy.Addr":         "the address a test's agents dial",
	"internal/transport.Proxy.Close":        "shuts a test's proxy down",
	"internal/transport.NewProxy":           "puts seeded wire faults between agent and collector in the chaos and crash tests; a package of its own would cycle with transport's in-package tests",
	"internal/transport.Proxy.Heal":         "ends a partition in the chaos tests",
	"internal/transport.Proxy.Live":         "lets the proxy tests wait for a connection before they cut it",
	"internal/transport.Proxy.Partition":    "cuts agents off in the chaos tests",
	"internal/transport.Proxy.Retarget":     "points the proxy at a restarted collector in crash tests",
	"internal/transport.SeqOf":              "lets a test's target check the session seqs it received",
	"internal/scenario/conform":             "the statistical conformance suite: only tests import it",
}

// stdlibMethods are the method names the standard library calls on our
// values through its own interfaces, where no code of ours can be seen
// calling them: today only fmt.Stringer's. A method so named is live while
// its receiver type is. Add a name when a type of ours is handed to the
// standard library for it to call (an error type's Error, a
// sort.Interface's Len, Less and Swap), and only then: a name here keeps
// every live type's method of that name.
var stdlibMethods = []string{"String"}

// TestSurfaceReachable fails on any declaration under internal/ or cmd/
// that only tests reach. It type-checks every non-test Go file of the
// module and of bench/ with go/types (the standard library from the
// compiler's export data) and marks declarations live from the roots:
// every main package's main and init, every declaration in bench/ (a
// module of its own that this repo does not edit), the root package's
// exported API, every init function and package-level var, and the
// allow-list. From a live declaration, every identifier and selector keeps
// the declaration it resolves to, so a method is live when live code
// selects it, and an interface's method when live code calls it through
// the interface. A method also lives when it implements an interface method
// live code calls and live code converts a value of its receiver type, or a
// pointer to one, to that interface — by an assignment, a call argument, a
// return, a composite-literal element or an explicit conversion — or when
// its name is in stdlibMethods and its receiver type is live.
func TestSurfaceReachable(t *testing.T) {
	s := loadSurface(t)
	l := s.reach(false)
	unreached := map[string]bool{} // keys and package dirs the roots miss
	for _, d := range l.dead() {
		unreached[d.key], unreached[d.pkg.dir] = true, true
	}
	var problems []string
	for key := range surfaceAllow {
		if !unreached[key] {
			problems = append(problems, "allow-list entry "+key+" names nothing only tests reach (it is live now, or gone): remove the entry")
		}
	}
	for _, d := range s.decls {
		doc := d.doc.Text()
		if _, ok := surfaceAllow[d.key]; ok && !strings.HasPrefix(doc, "Test hook:") && !strings.HasPrefix(doc, "Reference oracle:") && !strings.HasPrefix(doc, "Public API:") {
			problems = append(problems, d.key+" ("+d.pos+") is allow-listed: its doc comment must start \"Test hook:\", \"Reference oracle:\" or \"Public API:\"")
		}
	}
	// What an allow-listed declaration calls is as alive as it is: a
	// reference oracle's helpers stay with the oracle.
	l = s.reach(true)
	for _, d := range l.dead() {
		problems = append(problems, d.key+" ("+d.pos+") is reached only by tests: delete it, or allow-list it with a reason")
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// surfaceFieldAllow names the exported struct fields under internal/ that
// no non-test code writes but that stay, each with its reason. A key is
// "<dir>.<Type>.<Field>". As with surfaceAllow, an entry whose field gains
// a non-test write or is gone fails the test, and an allow-listed field's
// doc comment must start "Test hook:", or "Public API:" for a field a
// library user sets through one of the root package's type aliases.
var surfaceFieldAllow = map[string]string{
	"internal/cluster.Config.Ct":                       "a budget of 2/s makes the rate limit bind in the traceroute-budget test",
	"internal/cluster.Config.MaxRetries":               "16 retries keep the straggler test's connections alive through its 40µs RTOs, so stragglers reach reused Conns",
	"internal/cluster.Config.RTO":                      "an RTO below the round trip retransmits segments still in flight in the straggler test",
	"internal/ingest.AgentConfig.Transport":            "fast reconnects and polls for the networked ingest tests' agents",
	"internal/schedule.ConstantRate.Rate":              "public through vigil.ConstantRate",
	"internal/slb.SLB.QueryFailRate":                   "failed lookups in the SLB's query-failure test",
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
	"internal/transport.ProxyConfig.OnCut":             "names the cuts that saw no resume when the crash sweep fails",
	"internal/transport.ProxyConfig.Dup":               "duplicated frames in the chaos soaks",
	"internal/transport.ProxyConfig.Reorder":           "reordered frames in the chaos soaks",
	"internal/transport.ProxyConfig.Seed":              "replays a chaos test's fates",
	"internal/transport.ProxyConfig.Target":            "the collector a test puts the proxy in front of",
}

// TestConfigFieldsSet fails on any exported struct field under internal/
// (a test-support package's aside) that no non-test code writes: a knob
// read only at its zero value or its default is a constant. A write is a keyed or positional composite
// literal, an assignment, an increment, a &x.F, or a pointer-method call
// on x.F, anywhere outside tests, bench/ included; writing a field of a
// struct-valued field writes both. A *Config or *Options struct's field
// counts as written only outside its own package, so that package's `cfg.F
// = default` line does not count. Under -v it logs the number of config
// fields (those of *Config/*Options structs), of struct fields the rule
// checks, and of exported names (see exportedNames), which CI prints
// beside the non-test line count.
func TestConfigFieldsSet(t *testing.T) {
	s := loadSurface(t)
	config := 0
	for _, fd := range s.fields {
		if fd.config {
			config++
		}
	}
	t.Logf("config fields: %d", config)
	t.Logf("struct fields: %d", len(s.fields))
	t.Logf("exported names: %d", exportedNames(s))
	written := s.writes()
	var problems []string
	unset := map[string]bool{}
	for _, fd := range s.fields {
		if written[fd.obj] {
			continue
		}
		unset[fd.key] = true
		doc := fd.doc.Text()
		if _, ok := surfaceFieldAllow[fd.key]; !ok {
			problems = append(problems, fd.key+" ("+fd.pos+") is written by no non-test code: make it a constant, or allow-list it with a reason")
		} else if !strings.HasPrefix(doc, "Test hook:") && !strings.HasPrefix(doc, "Public API:") {
			problems = append(problems, fd.key+" ("+fd.pos+") is allow-listed: its doc comment must start \"Test hook:\" or \"Public API:\"")
		}
	}
	for key := range surfaceFieldAllow {
		if !unset[key] {
			problems = append(problems, "field allow-list entry "+key+" names no field that only tests write (non-test code writes it now, or it is gone): remove the entry")
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
	for _, p := range s.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
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
	s := loadSurface(t)
	for dir := range s.pkgs {
		if strings.HasPrefix(dir, "internal/") && !listed[dir] {
			t.Errorf("package %s is missing from DESIGN.md's package inventory", dir)
		}
	}
	for dir := range listed {
		if _, ok := s.pkgs[dir]; !ok {
			t.Errorf("DESIGN.md's package inventory lists %s, which is not a package", dir)
		}
	}
}

// perfNumber matches a performance figure: a number followed by a time
// (ms, µs, ns), a rate (epochs/s, reports/s), a ratio (×), an allocation
// count or an amount of memory. A workload parameter ("80 % of flows", "a
// 30 s epoch") is none of these.
var perfNumber = regexp.MustCompile(`\d(?:[\d,.]*\d)? ?(?:(?:ms|µs|ns|allocs|[KMG]i?B|kB)\b|epochs/s|reports/s|×)`)

// benchCite matches the name of a recorded benchmark run.
var benchCite = regexp.MustCompile(`BENCH_\d+(?:_parent)?\.json`)

// designUncited names the DESIGN.md paragraphs, by their first words,
// that state a performance number no BENCH_N.json row can back, each with
// its reason. An entry that names no such paragraph fails the test.
var designUncited = map[string]string{
	"**Ground truth is derived.**":                   "the 300 kB and 1 kB are bounds the named netem tests assert on every run, not measurements",
	"Memory is bounded in epochs":                    "the 128 KB is the bound TestReceiverStateBounded asserts on every run, not a measurement",
	"A new file has two 4 KiB slots (254 sessions).": "the slot size is the checkpoint format's constant, not a measurement",
}

// TestDesignDocCitesBench fails on a DESIGN.md paragraph that states a
// performance number (perfNumber) and names no BENCH_N.json, unless the
// paragraph is on designUncited, and on any named BENCH_N.json that does
// not exist or records no num_cpu: a time measured on an unknown number of
// CPUs backs no claim.
func TestDesignDocCitesBench(t *testing.T) {
	if len(designUncited) > 5 {
		t.Errorf("designUncited has %d entries; it may have 5", len(designUncited))
	}
	used := map[string]bool{}
	for _, para := range designParagraphs(t) {
		cited := false
		for _, name := range benchCite.FindAllString(para, -1) {
			if err := benchHasNumCPU(name); err != nil {
				t.Errorf("DESIGN.md cites %s: %v", name, err)
				continue
			}
			cited = true
		}
		num := perfNumber.FindString(para)
		if cited || num == "" {
			continue
		}
		if key := uncitedKey(para); key != "" {
			used[key] = true
			continue
		}
		first, _, _ := strings.Cut(para, "\n")
		t.Errorf("DESIGN.md states %q and cites no BENCH_N.json with num_cpu, in the paragraph starting %q", num, first)
	}
	for key := range designUncited {
		if !used[key] {
			t.Errorf("designUncited entry %q names no paragraph that states an uncited performance number: remove it", key)
		}
	}
}

// uncitedKey returns the designUncited entry a paragraph starts with, or "".
func uncitedKey(para string) string {
	for key := range designUncited {
		if strings.HasPrefix(para, key) {
			return key
		}
	}
	return ""
}

// benchHasNumCPU reports why a BENCH_N.json cannot back a claim: it is
// missing, or it records no num_cpu.
func benchHasNumCPU(name string) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	var run struct {
		NumCPU int `json:"num_cpu"`
	}
	if err := json.Unmarshal(data, &run); err != nil {
		return err
	}
	if run.NumCPU <= 0 {
		return fmt.Errorf("it records no num_cpu")
	}
	return nil
}

// designParagraphs splits DESIGN.md into paragraphs: runs of non-blank
// lines, a fenced code block being one paragraph whatever it holds.
func designParagraphs(t *testing.T) []string {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var paras []string
	var cur []string
	fenced := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if strings.TrimSpace(line) == "" && !fenced {
			if len(cur) > 0 {
				paras = append(paras, strings.Join(cur, "\n"))
			}
			cur = cur[:0]
			continue
		}
		cur = append(cur, line)
	}
	if len(cur) > 0 {
		paras = append(paras, strings.Join(cur, "\n"))
	}
	return paras
}

var (
	// codeSpan matches a backquoted span of DESIGN.md.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// qualified matches pkg.Name or pkg.Type.Member inside a code span.
	qualified = regexp.MustCompile(`(^|[^\w/.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// testFunc matches a code span that opens with a test, benchmark, fuzz
	// target or example's name.
	testFunc = regexp.MustCompile("^`((?:Test|Benchmark|Fuzz|Example)[A-Z_]\\w*)")
	// mdFile matches the name of a Markdown file.
	mdFile = regexp.MustCompile(`[\w./-]*\w\.md\b`)
	// designRef matches a Go comment's pointer into DESIGN.md and the
	// quoted section titles that follow it.
	designRef = regexp.MustCompile(`DESIGN\.md[ ,(]*((?:"[^"]+"(?:, *)?)+)`)
)

// fileExts are the extensions a backquoted file name ends in, so that
// `core.go` is not read as package core's name go.
var fileExts = []string{"go", "md", "json", "golden", "out", "sh", "mod"}

// TestDesignDocNamesResolve fails when a name DESIGN.md gives does not
// exist in the tree:
//   - a backquoted pkg.Name or pkg.Type.Member, where pkg is a package of
//     the module or of the standard library that the module imports, must
//     resolve to a declaration, a method or a field (a declaration of the
//     package's tests counts); a selector on anything else, a local such as
//     ep.Failed, is not checked;
//   - a backquoted test, benchmark, fuzz target or example must be declared
//     by a test file of the module or of bench/;
//   - a Markdown file that DESIGN.md or a non-test Go comment names must
//     exist, beside the naming file or at the module root;
//   - a section a Go comment quotes after "DESIGN.md" must be one of its
//     headings or bold paragraph leads.
func TestDesignDocNamesResolve(t *testing.T) {
	s := loadSurface(t)
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := packagesByName(s)
	tests, err := testDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	metrics := benchMetrics(t)
	titles := designTitles(string(doc))
	var problems []string
	for _, para := range designParagraphs(t) {
		if strings.HasPrefix(para, "```") {
			continue
		}
		for _, span := range codeSpan.FindAllString(para, -1) {
			problems = append(problems, spanProblems(span, pkgs, tests, metrics)...)
		}
	}
	exists := func(dir, name string) bool {
		for _, p := range []string{filepath.Join(dir, name), name} {
			if _, err := os.Stat(p); err == nil {
				return true
			}
		}
		return false
	}
	for _, name := range mdFile.FindAllString(string(doc), -1) {
		if !exists(".", name) {
			problems = append(problems, "DESIGN.md names "+name+", which does not exist")
		}
	}
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, cg := range f.Comments {
				text := strings.Join(strings.Fields(cg.Text()), " ")
				pos := s.fset.Position(cg.Pos()).String()
				for _, name := range mdFile.FindAllString(text, -1) {
					if !exists(p.dir, name) {
						problems = append(problems, pos+" names "+name+", which does not exist")
					}
				}
				for _, ref := range designRef.FindAllStringSubmatch(text, -1) {
					for _, title := range strings.Split(ref[1], `"`) {
						title = strings.Trim(title, ", ")
						if title != "" && !titles[strings.ToLower(title)] {
							problems = append(problems, pos+" points at DESIGN.md's \""+title+"\", which is no heading or bold paragraph lead of it")
						}
					}
				}
			}
		}
	}
	sort.Strings(problems)
	for _, p := range slices.Compact(problems) {
		t.Error(p)
	}
}

// packagesByName indexes the module's packages, but main ones, and every
// package they import, by package name.
func packagesByName(s *surface) map[string][]*types.Package {
	pkgs := map[string][]*types.Package{}
	var addPkg func(p *types.Package)
	addPkg = func(p *types.Package) {
		if slices.Contains(pkgs[p.Name()], p) {
			return
		}
		pkgs[p.Name()] = append(pkgs[p.Name()], p)
		for _, imp := range p.Imports() {
			addPkg(imp)
		}
	}
	for _, p := range s.pkgs {
		if p.types.Name() != "main" {
			addPkg(p.types)
		}
	}
	return pkgs
}

// benchMetrics returns the names of the metrics BENCHMARK.json declares,
// end to end and per layer.
func benchMetrics(t testing.TB) map[string]bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// spanProblems returns what is wrong with one backquoted span of
// DESIGN.md: a test, benchmark, fuzz target or example that no test file
// declares, or a pkg.Name or pkg.Type.Member that does not resolve. A span
// that is a metric's name in BENCHMARK.json (analysis.analyze_ms_p50) is
// a bench trace key, not a Go name.
func spanProblems(span string, pkgs map[string][]*types.Package, tests *testDeclSet, metrics map[string]bool) []string {
	if metrics[strings.Trim(span, "`")] {
		return nil
	}
	var problems []string
	if m := testFunc.FindStringSubmatch(span); m != nil && !tests.funcs[m[1]] {
		problems = append(problems, "DESIGN.md names "+m[1]+", which no test file declares")
	}
	for _, m := range qualified.FindAllStringSubmatch(span, -1) {
		name, path := m[2]+"."+m[3], pkgs[m[2]]
		if m[4] != "" {
			name += "." + m[4]
		}
		if len(path) == 0 || slices.Contains(fileExts, m[3]) {
			continue
		}
		if !slices.ContainsFunc(path, func(p *types.Package) bool { return resolves(p, m[3], m[4], tests) }) {
			problems = append(problems, "DESIGN.md names "+name+", which does not resolve to a declaration")
		}
	}
	return problems
}

// A DESIGN.md span that names a bench metric is no Go name: the rule
// passes analysis.analyze_ms_p50, a per-layer metric of BENCHMARK.json,
// and still reports analysis.analyze_ms_p99, which no list declares, and
// analysis.NoSuch.
func TestDesignDocSpanMetricKeys(t *testing.T) {
	s := loadSurface(t)
	tests, err := testDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, metrics := packagesByName(s), benchMetrics(t)
	for span, reported := range map[string]bool{
		"`analysis.analyze_ms_p50`": false,
		"`analysis.Analyze`":        false,
		"`analysis.analyze_ms_p99`": true,
		"`analysis.NoSuch`":         true,
	} {
		if got := spanProblems(span, pkgs, tests, metrics); (len(got) > 0) != reported {
			t.Errorf("%s: problems %q, want reported %v", span, got, reported)
		}
	}
}

// resolves reports whether Name, or Type.Member, is declared in package p:
// in its source, or, for a package of the module, in its tests.
func resolves(p *types.Package, name, member string, tests *testDeclSet) bool {
	key := p.Path() + "." + name
	obj := p.Scope().Lookup(name)
	switch {
	case member == "":
		return obj != nil || tests.decls[key]
	case tests.decls[key+"."+member]:
		return true
	case obj == nil:
		return tests.decls[key] // a test's type: its members are not checked
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member)
	return found != nil
}

// testDeclSet is what the test files of the module and of bench/ declare.
type testDeclSet struct {
	funcs map[string]bool // test, benchmark, fuzz target and example names
	decls map[string]bool // "<import path>.<Name>" and "<import path>.<Type>.<Method>"
}

// testDecls parses the _test.go files under root, bench/ included.
func testDecls(root string) (*testDeclSet, error) {
	set := &testDeclSet{funcs: map[string]bool{}, decls: map[string]bool{}}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path := "vigil"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			path += "/" + dir
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				} else {
					set.funcs[name] = true
				}
				set.decls[path+"."+name] = true
			case *ast.GenDecl:
				for _, sp := range decl.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						set.decls[path+"."+sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							set.decls[path+"."+n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	return set, err
}

// designTitles returns DESIGN.md's headings and bold paragraph leads,
// lower-cased and without a closing period.
func designTitles(doc string) map[string]bool {
	titles := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if h, ok := strings.CutPrefix(strings.TrimLeft(line, "#"), " "); ok && strings.HasPrefix(line, "#") {
			titles[strings.ToLower(h)] = true
		}
	}
	for _, m := range regexp.MustCompile(`\*\*([^*]+)\*\*`).FindAllStringSubmatch(doc, -1) {
		titles[strings.ToLower(strings.TrimSuffix(strings.Join(strings.Fields(m[1]), " "), "."))] = true
	}
	return titles
}

// surfacePkg is one type-checked package of the module or of bench/.
type surfacePkg struct {
	dir   string // relative to the module root: ".", "internal/vote", "bench", …
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// surfaceDecl is a declaration the liveness scan tracks: a package-level
// const, var, type or func, a method, or an interface's method.
type surfaceDecl struct {
	key, pos string
	pkg      *surfacePkg
	node     ast.Node        // what a live declaration's walk visits
	typ      *types.TypeName // the type a type declaration declares
	doc      *ast.CommentGroup
	root     bool
	checked  bool // under internal/ or cmd/
}

// surfaceField is an exported struct field under internal/ that the field
// rule checks.
type surfaceField struct {
	key, pos string
	pkg      *surfacePkg
	obj      *types.Var
	doc      *ast.CommentGroup
	config   bool // a field of a *Config or *Options struct
}

type surface struct {
	fset   *token.FileSet
	pkgs   map[string]*surfacePkg
	decls  []*surfaceDecl // in file order
	byObj  map[types.Object]*surfaceDecl
	fields []surfaceField
}

var loadedSurface = sync.OnceValues(func() (*surface, error) { return newSurface(".") })

// loadSurface type-checks the module once per test binary.
func loadSurface(t testing.TB) *surface {
	s, err := loadedSurface()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newSurface parses every non-test Go file under root, bench/ included,
// and type-checks each package from source against the standard library's
// export data.
func newSurface(root string) (*surface, error) {
	s := &surface{fset: token.NewFileSet(), pkgs: map[string]*surfacePkg{}, byObj: map[types.Object]*surfaceDecl{}}
	std := map[string]bool{} // import paths outside the module
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
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(cmp.Or(dir, "."), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(filepath.Clean(cmp.Or(dir, ".")))
		pkg := s.pkgs[rel]
		if pkg == nil {
			pkg = &surfacePkg{dir: rel}
			s.pkgs[rel] = pkg
		}
		pkg.files = append(pkg.files, f)
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); moduleDir(ip) == "" {
				std[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(std)
	if err != nil {
		return nil, err
	}
	imp := &surfaceImporter{s: s,
		std: importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		})}
	dirs := make([]string, 0, len(s.pkgs))
	for dir := range s.pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := imp.check(s.pkgs[dir]); err != nil {
			return nil, err
		}
	}
	for _, dir := range dirs {
		for _, f := range s.pkgs[dir].files {
			s.addDecls(s.pkgs[dir], f)
		}
	}
	return s, nil
}

// moduleDir maps an import path inside the module (bench/ included) to its
// directory, and any other path to "".
func moduleDir(path string) string {
	if path == "vigil" {
		return "."
	}
	if rel, ok := strings.CutPrefix(path, "vigil/"); ok {
		return rel
	}
	return ""
}

// stdExports asks the go command for the export data of the standard
// library packages the module imports and of their dependencies. A test
// binary built with -race asks for the race build's, which the test run
// has already compiled.
func stdExports(paths map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				args = append(args, "-race")
			}
		}
	}
	for p := range paths {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	return exports, nil
}

// surfaceImporter type-checks the module's packages from source, each
// once, and imports everything else from export data.
type surfaceImporter struct {
	s   *surface
	std types.Importer
}

func (im *surfaceImporter) Import(path string) (*types.Package, error) {
	dir := moduleDir(path)
	if dir == "" {
		return im.std.Import(path)
	}
	p := im.s.pkgs[dir]
	if p == nil {
		return nil, fmt.Errorf("no package %s in the module", path)
	}
	return im.check(p)
}

func (im *surfaceImporter) check(p *surfacePkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	path := "vigil"
	if p.dir != "." {
		path += "/" + p.dir
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.s.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	return pkg, nil
}

// addDecls records a file's declarations and its exported struct fields.
func (s *surface) addDecls(p *surfacePkg, f *ast.File) {
	checked := strings.HasPrefix(p.dir, "cmd/") || strings.HasPrefix(p.dir, "internal/")
	add := func(key string, pos token.Pos, node ast.Node, doc *ast.CommentGroup, ids ...*ast.Ident) *surfaceDecl {
		d := &surfaceDecl{
			key: p.dir + "." + key, pos: s.fset.Position(pos).String(), pkg: p,
			node: node, doc: doc, checked: checked,
			// bench/ is a module of its own that this repo does not edit;
			// the root package's exported names are the library API.
			root: p.dir == "bench" || p.dir == "." && ast.IsExported(key[strings.LastIndexByte(key, '.')+1:]),
		}
		s.decls = append(s.decls, d)
		for _, id := range ids {
			if obj := p.info.Defs[id]; obj != nil {
				s.byObj[obj] = d
			}
		}
		return d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			name := decl.Name.Name
			if decl.Recv != nil {
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			d := add(name, decl.Pos(), decl, decl.Doc, decl.Name)
			d.root = d.root || decl.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main")
		case *ast.GenDecl:
			switch decl.Tok {
			case token.CONST:
				if constEnum(decl) {
					// An iota enum is one declaration: its unused
					// members stay while any member is used.
					var ids []*ast.Ident
					for _, sp := range decl.Specs {
						ids = append(ids, sp.(*ast.ValueSpec).Names...)
					}
					add(ids[0].Name, decl.Pos(), decl, decl.Doc, ids...)
					continue
				}
				for _, sp := range decl.Specs {
					vs := sp.(*ast.ValueSpec)
					for _, n := range vs.Names {
						add(n.Name, n.Pos(), vs, cmp.Or(vs.Doc, decl.Doc), n)
					}
				}
			case token.VAR:
				var ids []*ast.Ident
				for _, sp := range decl.Specs {
					ids = append(ids, sp.(*ast.ValueSpec).Names...)
				}
				add(ids[0].Name, decl.Pos(), decl, decl.Doc, ids...).root = true
			case token.TYPE:
				for _, sp := range decl.Specs {
					ts := sp.(*ast.TypeSpec)
					d := add(ts.Name.Name, ts.Pos(), ts, cmp.Or(ts.Doc, decl.Doc), ts.Name)
					d.typ, _ = p.info.Defs[ts.Name].(*types.TypeName)
					switch typ := ts.Type.(type) {
					case *ast.InterfaceType:
						for _, m := range typ.Methods.List {
							for _, n := range m.Names {
								add(ts.Name.Name+"."+n.Name, n.Pos(), m, m.Doc, n)
							}
						}
					case *ast.StructType:
						s.addFields(p, ts.Name.Name, typ)
					}
				}
			}
		}
	}
}

// addFields records the exported named fields of a struct type under
// internal/, outside the packages that exist only to support tests.
func (s *surface) addFields(p *surfacePkg, typ string, st *ast.StructType) {
	if _, testSupport := surfaceAllow[p.dir]; testSupport || !strings.HasPrefix(p.dir, "internal/") {
		return
	}
	for _, fl := range st.Fields.List {
		for _, n := range fl.Names {
			if n.IsExported() {
				s.fields = append(s.fields, surfaceField{
					key: p.dir + "." + typ + "." + n.Name, pos: s.fset.Position(n.Pos()).String(), pkg: p,
					obj: p.info.Defs[n].(*types.Var), doc: fl.Doc,
					config: strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Options"),
				})
			}
		}
	}
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

// liveness is one marking of the declarations from the roots.
type liveness struct {
	s         *surface
	live      map[*surfaceDecl]bool
	queue     []*surfaceDecl
	called    []*types.Func // interface methods live code selects
	converted []conversion  // the interfaces live code converts our types to
	seen      map[types.Object]bool
}

// conversion is a named type whose values, or pointers to them, live code
// converts to an interface.
type conversion struct {
	from *types.TypeName
	to   *types.Interface
}

// reach marks what the roots reach; with allowed, the allow-listed
// declarations and packages are roots too.
func (s *surface) reach(allowed bool) *liveness {
	l := &liveness{s: s, live: map[*surfaceDecl]bool{}, seen: map[types.Object]bool{}}
	for _, d := range s.decls {
		_, name := surfaceAllow[d.key]
		_, pkg := surfaceAllow[d.pkg.dir]
		if d.root || allowed && (name || pkg) {
			l.mark(d)
		}
	}
	for len(l.queue) > 0 {
		d := l.queue[len(l.queue)-1]
		l.queue = l.queue[:len(l.queue)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.pkg.info.Uses[id]; obj != nil {
					l.use(obj)
				}
			}
			return true
		})
		l.conversions(d.pkg.info, d.node, nil)
		if d.typ != nil {
			l.liveType(d.typ)
		}
	}
	return l
}

func (l *liveness) mark(d *surfaceDecl) {
	if d == nil || l.live[d] {
		return
	}
	l.live[d] = true
	l.queue = append(l.queue, d)
}

// use marks the declaration an identifier resolves to. An interface's
// method, once used, also keeps the method that implements it of every type
// converted to an interface that has it.
func (l *liveness) use(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if l.seen[obj] {
		return
	}
	l.seen[obj] = true
	l.mark(l.s.byObj[obj])
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil || !types.IsInterface(fn.Signature().Recv().Type()) {
		return
	}
	l.called = append(l.called, fn)
	for _, c := range l.converted {
		l.implements(c, fn)
	}
}

// liveType records a live type: its stdlib-called methods live.
func (l *liveness) liveType(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) {
		return
	}
	for i := range named.NumMethods() {
		if m := named.Method(i); slices.Contains(stdlibMethods, m.Name()) {
			l.use(m)
		}
	}
}

// convert records that live code converts a value of type from to the
// interface type to, and keeps the methods that implement the interface's
// methods live code calls.
func (l *liveness) convert(to, from types.Type) {
	if to == nil || from == nil { // a blank identifier's type, or none
		return
	}
	iface, ok := to.Underlying().(*types.Interface)
	if !ok || types.IsInterface(from) {
		return
	}
	if ptr, ok := from.(*types.Pointer); ok {
		from = ptr.Elem()
	}
	named, ok := from.(*types.Named)
	if !ok {
		return
	}
	c := conversion{named.Origin().Obj(), iface}
	for _, old := range l.converted {
		if old.from == c.from && types.Identical(old.to, c.to) {
			return
		}
	}
	l.converted = append(l.converted, c)
	for _, fn := range l.called {
		l.implements(c, fn)
	}
}

// implements marks the method of c's type, or of a pointer to it, that
// implements fn, when fn is a method of the interface c converts to.
func (l *liveness) implements(c conversion, fn *types.Func) {
	has := false
	for i := range c.to.NumMethods() {
		has = has || c.to.Method(i).Origin() == fn
	}
	if !has {
		return
	}
	t := c.from.Type()
	for _, v := range []types.Type{t, types.NewPointer(t)} {
		if m, _, _ := types.LookupFieldOrMethod(v, true, fn.Pkg(), fn.Name()); m != nil {
			if m, ok := m.(*types.Func); ok {
				l.use(m)
				return
			}
		}
	}
}

// conversions records every conversion of a value to an interface type
// under node: an assignment, a call argument, a return, a composite-literal
// element or an explicit conversion. results are the result types of the
// function node's returns belong to.
func (l *liveness) conversions(info *types.Info, node ast.Node, results *types.Tuple) {
	// values are the types of exprs, a call's results spread out.
	values := func(exprs []ast.Expr) []types.Type {
		var out []types.Type
		for _, e := range exprs {
			if tuple, ok := info.TypeOf(e).(*types.Tuple); ok {
				for i := range tuple.Len() {
					out = append(out, tuple.At(i).Type())
				}
			} else {
				out = append(out, info.TypeOf(e))
			}
		}
		return out
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				l.conversions(info, n.Body, info.Defs[n.Name].Type().(*types.Signature).Results())
			}
			return false
		case *ast.FuncLit:
			l.conversions(info, n.Body, info.TypeOf(n).(*types.Signature).Results())
			return false
		case *ast.AssignStmt:
			for i, v := range values(n.Rhs) {
				l.convert(info.TypeOf(n.Lhs[i]), v)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					l.convert(info.TypeOf(n.Type), info.TypeOf(v))
				}
			}
		case *ast.ReturnStmt:
			for i, v := range values(n.Results) {
				l.convert(results.At(i).Type(), v) // a bare return converts nothing
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					l.convert(tv.Type, info.TypeOf(n.Args[0]))
				}
				return true
			}
			sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i, v := range values(n.Args) {
				switch last := params.Len() - 1; {
				case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
					l.convert(params.At(last).Type().(*types.Slice).Elem(), v)
				case i <= last:
					l.convert(params.At(i).Type(), v)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			for i, e := range n.Elts {
				kv, keyed := e.(*ast.KeyValueExpr)
				switch u := t.Underlying().(type) {
				case *types.Struct:
					if keyed {
						l.convert(info.Uses[kv.Key.(*ast.Ident)].Type(), info.TypeOf(kv.Value))
					} else {
						l.convert(u.Field(i).Type(), info.TypeOf(e))
					}
				case *types.Slice, *types.Array:
					if keyed {
						e = kv.Value
					}
					l.convert(u.(interface{ Elem() types.Type }).Elem(), info.TypeOf(e))
				case *types.Map:
					l.convert(u.Key(), info.TypeOf(kv.Key))
					l.convert(u.Elem(), info.TypeOf(kv.Value))
				}
			}
		}
		return true
	})
}

// dead lists the checked declarations the roots do not reach, in file order.
func (l *liveness) dead() []*surfaceDecl {
	var out []*surfaceDecl
	for _, d := range l.s.decls {
		if d.checked && !l.live[d] {
			out = append(out, d)
		}
	}
	return out
}

// writes returns the struct fields non-test code writes.
func (s *surface) writes() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	own := map[*types.Var]*types.Package{} // a config field's package
	for _, fd := range s.fields {
		if fd.config {
			own[fd.obj] = fd.pkg.types
		}
	}
	for _, p := range s.pkgs {
		info := p.info
		write := func(v *types.Var, literal bool) {
			v = v.Origin()
			if literal || own[v] != p.types {
				written[v] = true
			}
		}
		// target marks the field an assignment's left side writes, and
		// the struct-valued fields that hold it.
		var target func(e ast.Expr)
		target = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				sel := info.Selections[e]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				write(sel.Obj().(*types.Var), false)
				if !sel.Indirect() {
					target(e.X)
				}
			case *ast.IndexExpr:
				if _, ok := info.Types[e.X].Type.Underlying().(*types.Array); ok {
					target(e.X)
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							write(info.Uses[kv.Key.(*ast.Ident)].(*types.Var), true)
						} else {
							write(st.Field(i), true)
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						target(n.Key)
						if n.Value != nil {
							target(n.Value)
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				case *ast.SelectorExpr:
					// A pointer-method call on an addressable field value.
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.MethodVal {
						return true
					}
					_, ptrRecv := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer)
					_, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						target(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}
