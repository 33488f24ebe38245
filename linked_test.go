package bees

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowlist names the non-test functions of internal/ that no
// binary links on purpose: test support other packages' tests import,
// which therefore cannot live in a _test.go file, and shims the
// benchmark still compiles against. One entry per line,
// "<symbol> <reason>"; '#' starts a comment.
const unlinkedAllowlist = "testdata/unlinked_allowlist.txt"

// TestEveryInternalFunctionIsLinked fails when a non-test function in
// internal/ is linked by no binary and is not on the allowlist, and when
// an allowlist entry is stale: its function is gone, or a binary links
// it now. The binaries are every main package in the module plus a
// generated main that references each exported top-level function of
// this package, so the public API counts as a caller but the methods of
// the internal types it aliases do not. One `go build` links them all
// with inlining off (an inlined callee still shows) and the linker's
// -dumpdep reachability dump; the generated main is supplied through
// -overlay and the binaries go to a temp dir, so nothing is written into
// the tree. A function only tests call belongs in a _test.go file, or
// nowhere.
//
// Blind spot: an exported method whose name and signature match an
// interface method that some linked code calls always counts as linked.
// The linker keeps every such method of a type that is converted to an
// interface (-dumpdep shows "<UsedInIface>" edges), whether or not any
// call can reach it: a Sync() error on a type stored in an interface
// survives because diskfault.File's Sync is called, even when nothing
// calls that type's own Sync.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("linker audit skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	funcs, err := internalFuncs("internal")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(unlinkedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	linked, err := linkedSymbols(gobin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range linkProblems(funcs, linked, allow) {
		t.Error(p)
	}
}

// TestLinkProblems checks the gate's verdicts on a planted unlinked
// function and on both kinds of stale allowlist entry.
func TestLinkProblems(t *testing.T) {
	funcs := map[string]funcPos{
		"bees/internal/m.Used":           {"internal/m/m.go", 1, 3},
		"bees/internal/m.Planted":        {"internal/m/m.go", 5, 3},
		"bees/internal/m.(*Fake).Fail":   {"internal/m/fake.go", 1, 4},
		"bees/internal/m.Fake.String":    {"internal/m/fake.go", 6, 1},
		"bees/internal/m.(*Fake).Linked": {"internal/m/fake.go", 8, 1},
	}
	linked := map[string]bool{
		"bees/internal/m.Used":           true,
		"bees/internal/m.(*Fake).Linked": true,
	}
	allow := map[string]string{
		"bees/internal/m.(*Fake).Fail":   "test support",
		"bees/internal/m.Fake.String":    "test support",
		"bees/internal/m.(*Fake).Linked": "test support",
		"bees/internal/m.Gone":           "test support",
	}
	got := linkProblems(funcs, linked, allow)
	want := []string{
		"internal/m/m.go:5: bees/internal/m.Planted (3 lines) is linked by no binary: delete it, move it into a _test.go file, or allowlist it as cross-package test support",
		"testdata/unlinked_allowlist.txt: stale entry bees/internal/m.(*Fake).Linked: a binary links it",
		"testdata/unlinked_allowlist.txt: stale entry bees/internal/m.Gone: no such function in internal/",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFuncSymbol checks the linker-name rendering of each receiver form.
func TestFuncSymbol(t *testing.T) {
	src := `package p
func F() {}
func G[T any](T) {}
func (T) V() {}
func (*T) P() {}
func (S[K]) GV() {}
func (*M[K, V]) GP() {}
func init() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			if s, ok := funcSymbol("bees/internal/p", fd); ok {
				got = append(got, s)
			}
		}
	}
	want := "bees/internal/p.F bees/internal/p.G bees/internal/p.T.V bees/internal/p.(*T).P bees/internal/p.S.GV bees/internal/p.(*M).GP"
	if strings.Join(got, " ") != want {
		t.Fatalf("symbols %q, want %q", strings.Join(got, " "), want)
	}
	if s := stripTypeArgs("bees/internal/t.sortedKeys[go.shape.struct { A []int }]"); s != "bees/internal/t.sortedKeys" {
		t.Fatalf("stripTypeArgs = %q", s)
	}
}

// funcPos locates a function declaration for the failure message.
type funcPos struct {
	file  string
	line  int
	lines int
}

// linkProblems returns one message per unlinked function missing from
// allow and per stale allow entry, sorted.
func linkProblems(funcs map[string]funcPos, linked map[string]bool, allow map[string]string) []string {
	var out []string
	for sym, p := range funcs {
		if !linked[sym] && allow[sym] == "" {
			out = append(out, fmt.Sprintf("%s:%d: %s (%d lines) is linked by no binary: delete it, move it into a _test.go file, or allowlist it as cross-package test support", p.file, p.line, sym, p.lines))
		}
	}
	for sym := range allow {
		if _, ok := funcs[sym]; !ok {
			out = append(out, fmt.Sprintf("%s: stale entry %s: no such function in internal/", unlinkedAllowlist, sym))
		} else if linked[sym] {
			out = append(out, fmt.Sprintf("%s: stale entry %s: a binary links it", unlinkedAllowlist, sym))
		}
	}
	sort.Strings(out)
	return out
}

// internalFuncs maps the linker symbol of every function declared in a
// non-test file under root to its position. init functions are left
// out: they run whenever their package is linked.
func internalFuncs(root string) (map[string]funcPos, error) {
	funcs := map[string]funcPos{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "bees/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sym, ok := funcSymbol(pkg, fd)
			if !ok {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			funcs[sym] = funcPos{filepath.ToSlash(path), start.Line, end.Line - start.Line + 1}
		}
		return nil
	})
	return funcs, err
}

// funcSymbol renders fd as the linker names it with type arguments
// dropped: pkg.F, pkg.T.M for a value receiver, pkg.(*T).M for a
// pointer receiver. It reports false for init.
func funcSymbol(pkg string, fd *ast.FuncDecl) (string, bool) {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name, fd.Name.Name != "init"
	}
	typ := fd.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star != "" {
		return pkg + ".(*" + recv + ")." + fd.Name.Name, true
	}
	return pkg + "." + recv + "." + fd.Name.Name, true
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// symbol, so each instantiation of a generic function maps to its
// declaration.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// linkedSymbols builds every main package plus the public-API roots
// main into dir and returns the set of bees/internal symbols the linker
// kept, type arguments stripped.
func linkedSymbols(gobin, dir string) (map[string]bool, error) {
	roots, err := publicFuncs(".")
	if err != nil {
		return nil, err
	}
	var src bytes.Buffer
	src.WriteString("package main\n\nimport (\n\t\"fmt\"\n\n\t\"bees\"\n)\n\nvar roots = []any{\n")
	for _, name := range roots {
		fmt.Fprintf(&src, "\tbees.%s,\n", name)
	}
	src.WriteString("}\n\nfunc main() { fmt.Println(len(roots)) }\n")
	mainFile := filepath.Join(dir, "main.go")
	if err := os.WriteFile(mainFile, src.Bytes(), 0o644); err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// The overlay places the roots main at a package path that does not
	// exist on disk.
	rootsPkg := filepath.Join(wd, "internal", "linkroots")
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(rootsPkg, "main.go"): mainFile},
	})
	if err != nil {
		return nil, err
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(gobin, "build", "-overlay", overlayFile,
		"-o", filepath.Join(dir, "bin")+string(filepath.Separator),
		"-gcflags=all=-l", "-ldflags=-dumpdep", "./...", "./internal/linkroots")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		_, to, ok := strings.Cut(sc.Text(), " -> ")
		if ok && strings.HasPrefix(to, "bees/internal/") {
			linked[stripTypeArgs(to)] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(linked) == 0 {
		return nil, fmt.Errorf("go build -ldflags=-dumpdep printed no bees/internal symbols:\n%s", out)
	}
	return linked, nil
}

// publicFuncs lists the exported, non-generic top-level functions
// declared in the non-test files of the package in dir.
func publicFuncs(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.TypeParams == nil && fd.Name.IsExported() {
				names = append(names, fd.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// readAllowlist parses the allowlist into symbol -> reason, rejecting
// an entry without a reason and a duplicate entry.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: entry %s gives no reason", path, i+1, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, i+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}
