package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The export rule: every exported identifier under a module's internal/
// tree must have a reader outside the tests. A test alone is not a
// reader: an export that only its tests call is API nothing else needs,
// so it is deleted, or unexported when in-package tests still use it.
// The few exceptions with a real reader the type checker cannot see (an
// E-section benchmark, a testable Example, a documented experiment) are
// listed in exports.allow, each with that reader.
//
// Candidates are exported package-level funcs, types, consts and vars
// and the exported methods of named types; struct fields are out of
// scope. A reader is any use from a non-test file of the module tree
// (the root facade, cmd/, examples/, internal/, and the nested
// perfbench module). Methods that satisfy an interface are exempt: the
// interface is their reader.

// exportEntry is one line of the allowlist.
type exportEntry struct {
	line   int
	ident  string // "pkgpath.Name" or "pkgpath.Type.Method"
	reader string // "Benchmark…", "Example…" or "FILE.md#Heading"
}

// exportCandidate is one exported identifier under internal/.
type exportCandidate struct {
	obj  types.Object
	pos  token.Position
	decl []ast.Node // its own declaration and its methods' receivers: uses there are not reads
}

// auditExports runs the rule over the module tree at root against the
// allowlist text and returns its findings, sorted. Unread candidates
// missing from the list, entries whose identifier is gone or now read,
// and entries that name no valid reader are all findings.
func auditExports(root, allowText string) ([]string, error) {
	l := sharedLoader
	var units []*pkgUnit
	var testFiles []*ast.File
	loaded := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				l.registerModuleFor(path)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(l.fset, path, nil, 0)
			if err != nil {
				return err
			}
			testFiles = append(testFiles, f)
			return nil
		}
		dir := filepath.Dir(path)
		if loaded[dir] {
			return nil
		}
		loaded[dir] = true
		u, err := l.load(dir, l.importPathFor(dir))
		if err != nil {
			return err
		}
		if len(u.errs) > 0 {
			return fmt.Errorf("%s: %v", dir, u.errs[0])
		}
		units = append(units, u)
		return nil
	})
	if err != nil {
		return nil, err
	}

	internal, err := filepath.Abs(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	internal += string(filepath.Separator)
	cands := map[types.Object]*exportCandidate{}
	for _, u := range units {
		if strings.HasPrefix(u.dir+string(filepath.Separator), internal) {
			collectCandidates(l.fset, u, cands)
		}
	}
	read := map[types.Object]bool{}
	for _, u := range units {
		for id, obj := range u.info.Uses {
			c := cands[origin(obj)]
			if c == nil || within(c.decl, id.Pos()) {
				continue
			}
			read[c.obj] = true
		}
	}
	ifaces := interfacesOf(units)

	byIdent := map[string]*exportCandidate{}
	for _, c := range cands {
		byIdent[exportName(c.obj)] = c
	}
	entries, findings := parseAllow(allowText)
	listed := map[string]bool{}
	for _, e := range entries {
		listed[e.ident] = true
		c := byIdent[e.ident]
		switch {
		case c == nil:
			findings = append(findings, fmt.Sprintf("exports.allow:%d: stale entry %s: no such exported identifier under internal/", e.line, e.ident))
		case read[c.obj] || satisfiesInterface(c.obj, ifaces):
			findings = append(findings, fmt.Sprintf("exports.allow:%d: stale entry %s: it now has a non-test reader", e.line, e.ident))
		default:
			if msg := checkReader(root, e, c.obj.Name(), testFiles); msg != "" {
				findings = append(findings, fmt.Sprintf("exports.allow:%d: %s: %s", e.line, e.ident, msg))
			}
		}
	}
	for _, c := range cands {
		if read[c.obj] || listed[exportName(c.obj)] || satisfiesInterface(c.obj, ifaces) {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s:%d: %s is exported but no non-test code reads it: delete it, unexport it, or list its reader in exports.allow",
			c.pos.Filename, c.pos.Line, exportName(c.obj)))
	}
	sort.Strings(findings)
	return findings, nil
}

// collectCandidates records the unit's exported package-level
// identifiers and exported methods, each with the syntax that belongs to
// its own declaration.
func collectCandidates(fset *token.FileSet, u *pkgUnit, cands map[types.Object]*exportCandidate) {
	add := func(id *ast.Ident, decl ast.Node) *exportCandidate {
		obj := u.info.Defs[id]
		if obj == nil || !id.IsExported() {
			return nil
		}
		c := &exportCandidate{obj: obj, pos: fset.Position(id.Pos()), decl: []ast.Node{decl}}
		cands[obj] = c
		return c
	}
	var recvs []*ast.FuncDecl
	for _, f := range u.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					recvs = append(recvs, d)
				}
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s)
						}
					}
				}
			}
		}
	}
	// A method's receiver names its type; that is a declaration, not a read.
	for _, fd := range recvs {
		if named := receiverNamed(u.info.Defs[fd.Name]); named != nil {
			if c := cands[named.Obj()]; c != nil {
				c.decl = append(c.decl, fd.Recv)
			}
		}
	}
}

func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// origin maps an instantiated generic func or var to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// exportName spells an identifier the way the allowlist does.
func exportName(obj types.Object) string {
	if named := receiverNamed(obj); named != nil {
		return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfacesOf collects the interfaces a method can satisfy: every
// non-empty interface the module's code mentions, every exported
// interface of the packages it imports (fmt.Stringer, json.Marshaler,
// types.Importer, …), error, and the errors package's unnamed Unwrap
// convention.
func interfacesOf(units []*pkgUnit) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		out = append(out, it)
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, u := range units {
		for _, tv := range u.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		visit(u.pkg)
	}
	return out
}

// satisfiesInterface reports whether obj is a method that lets its
// type (or a pointer to it) implement an interface declaring it.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	named := receiverNamed(obj)
	if named == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != obj.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// parseAllow reads the allowlist: one `identifier -- reader` a line;
// blank lines and `#` comments are skipped.
func parseAllow(text string) ([]exportEntry, []string) {
	var entries []exportEntry
	var findings []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ident, reader, _ := strings.Cut(line, "--")
		e := exportEntry{line: n, ident: strings.TrimSpace(ident), reader: strings.TrimSpace(reader)}
		if strings.ContainsAny(e.ident, " \t") {
			findings = append(findings, fmt.Sprintf("exports.allow:%d: malformed entry %q (want `identifier -- reader`)", n, line))
			continue
		}
		entries = append(entries, e)
	}
	return entries, findings
}

// checkReader validates an entry's reader: a Benchmark or Example
// function of the module's tests that names the identifier, or a
// Markdown section (FILE.md#Heading) that names it. A Test function is
// not a reader.
func checkReader(root string, e exportEntry, name string, testFiles []*ast.File) string {
	switch {
	case e.reader == "":
		return "names no reader (a Benchmark, an Example, or a documented FILE.md#Heading)"
	case strings.HasPrefix(e.reader, "Benchmark"), strings.HasPrefix(e.reader, "Example"):
		for _, f := range testFiles {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Name.Name != e.reader {
					continue
				}
				if mentions(fd, name) {
					return ""
				}
				return fmt.Sprintf("reader %s does not name %s", e.reader, name)
			}
		}
		return fmt.Sprintf("reader %s: no such function in the module's tests", e.reader)
	case strings.Contains(e.reader, ".md#"):
		file, heading, _ := strings.Cut(e.reader, "#")
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			return fmt.Sprintf("reader %s: %v", e.reader, err)
		}
		section, ok := markdownSection(string(data), heading)
		if !ok {
			return fmt.Sprintf("reader %s: no such heading", e.reader)
		}
		if !strings.Contains(section, name) {
			return fmt.Sprintf("reader %s does not name %s", e.reader, name)
		}
		return ""
	}
	return fmt.Sprintf("reader %q is not a Benchmark, an Example or a documented FILE.md#Heading (a test alone is not a reader)", e.reader)
}

func mentions(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// markdownSection returns the text under the first heading that starts
// with the given title, up to the next heading of the same or a higher
// level. Lines inside fenced code blocks are never headings.
func markdownSection(doc, title string) (string, bool) {
	lines := strings.Split(doc, "\n")
	levels := make([]int, len(lines))
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if l := len(line) - len(strings.TrimLeft(line, "#")); !fenced && l > 0 && strings.HasPrefix(line[l:], " ") {
			levels[i] = l
		}
	}
	for i, level := range levels {
		if level == 0 || !strings.HasPrefix(strings.TrimSpace(lines[i][level:]), title) {
			continue
		}
		end := i + 1
		for end < len(lines) && (levels[end] == 0 || levels[end] > level) {
			end++
		}
		return strings.Join(lines[i+1:end], "\n"), true
	}
	return "", false
}

// TestExportsHaveReaders is the rule on this module: every exported
// identifier under internal/ has a non-test reader or an allowlist line
// naming one.
func TestExportsHaveReaders(t *testing.T) {
	allow, err := os.ReadFile("testdata/exports.allow")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := auditExports("../..", string(allow))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestExportsRuleFixture runs the rule over testdata/exports: an export
// read only by its test, one read by a command, a method that satisfies
// fmt.Stringer, and an allowlist with a valid, a stale and a readerless
// entry. The rule must report exactly the test-only export and the two
// bad entries. A second allowlist covers the other ways an entry goes
// bad: its identifier gained a reader, or its reader is a test or
// missing.
func TestExportsRuleFixture(t *testing.T) {
	allow, err := os.ReadFile("testdata/exports/exports.allow")
	if err != nil {
		t.Fatal(err)
	}
	const testOnly = "lib.go:5: exportsfix/internal/lib.TestOnly is exported but no non-test code reads it"
	for _, tc := range []struct {
		name  string
		allow string
		want  []string
	}{
		{"committed", string(allow), []string{
			testOnly,
			"exports.allow:3: stale entry exportsfix/internal/lib.Gone: no such exported identifier",
			"exports.allow:4: exportsfix/internal/lib.Listed: names no reader",
		}},
		{"bad readers", "exportsfix/internal/lib.Used -- BenchmarkBenched\n" +
			"exportsfix/internal/lib.Listed -- TestOnlyAndListed\n" +
			"exportsfix/internal/lib.Benched -- BenchmarkMissing\n", []string{
			testOnly,
			"exports.allow:1: stale entry exportsfix/internal/lib.Used: it now has a non-test reader",
			`exports.allow:2: exportsfix/internal/lib.Listed: reader "TestOnlyAndListed" is not a Benchmark`,
			"exports.allow:3: exportsfix/internal/lib.Benched: reader BenchmarkMissing: no such function",
		}},
	} {
		got, err := auditExports("testdata/exports", tc.allow)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d findings, want %d:\n%s", tc.name, len(got), len(tc.want), strings.Join(got, "\n"))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: finding %d = %q, want it to contain %q", tc.name, i, got[i], w)
			}
		}
	}
}
