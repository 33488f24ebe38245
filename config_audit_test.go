package bees

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// configAllowlist names the declarations TestEveryConfigFieldIsVaried
// lets stand: knobs the benchmark still reads and names only fixtures
// use. One entry per line, "<name> <reason>"; '#' starts a comment.
const configAllowlist = "testdata/config_allowlist.txt"

// TestEveryConfigFieldIsVaried fails when a field of a *Config or
// *Options struct declared in non-test internal/ code is set only by
// the code that fills its defaults, and when a package-level type,
// const or var, or a struct field, declared in non-test internal/ code
// is referenced by no non-test file of the module. A knob no caller
// varies is a constant; a name only tests use belongs in a _test.go
// file, or nowhere. It also fails on a stale allowlist entry: its name
// is gone, or nothing is wrong with it any more.
//
// A field is set by an assignment to it or by a composite literal that
// names it (an unkeyed literal sets every field). A set is defaulting
// code when it lies in a function named withDefaults, Default* or New*:
// the code that fills a zero value or plumbs a default through. Sets in
// test files count like any other: a knob a test varies is a knob.
// Embedded fields, blank names and fields with a struct tag (read by
// reflection) are not audited for references.
//
// Blind spots: a set is judged by where it is, not by its value, so a
// field a caller only ever sets to its default, or copies from another
// knob, counts as varied. And a struct-valued field that callers vary
// only through its own fields (cfg.Server.Telemetry = reg) counts as
// never set.
func TestEveryConfigFieldIsVaried(t *testing.T) {
	if testing.Short() {
		t.Skip("config audit skipped in -short mode")
	}
	decls, err := auditModule(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(configAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	knobs := 0
	for _, d := range decls {
		if d.knob {
			knobs++
		}
	}
	t.Logf("%d fields in internal/ *Config and *Options structs", knobs)
	for _, p := range configProblems(decls, allow) {
		t.Error(p)
	}
}

// TestConfigProblems checks the audit's verdicts on planted
// declarations and on both kinds of stale allowlist entry.
func TestConfigProblems(t *testing.T) {
	decls := map[string]auditDecl{
		"bees/internal/m.Config.Varied":    {pos: "internal/m/m.go:3", kind: "field", knob: true, varied: true, used: true},
		"bees/internal/m.Config.Defaulted": {pos: "internal/m/m.go:4", kind: "field", knob: true, used: true},
		"bees/internal/m.Config.Bench":     {pos: "internal/m/m.go:5", kind: "field", knob: true, used: true},
		"bees/internal/m.Config.NowVaried": {pos: "internal/m/m.go:6", kind: "field", knob: true, varied: true, used: true},
		"bees/internal/m.fixtureOnly":      {pos: "internal/m/m.go:9", kind: "const"},
		"bees/internal/m.Used":             {pos: "internal/m/m.go:10", kind: "var", used: true},
	}
	allow := map[string]string{
		"bees/internal/m.Config.Bench":     "the benchmark reads it",
		"bees/internal/m.Config.NowVaried": "the benchmark reads it",
		"bees/internal/m.Config.Gone":      "the benchmark reads it",
	}
	got := configProblems(decls, allow)
	want := []string{
		"internal/m/m.go:4: field bees/internal/m.Config.Defaulted is set only by its defaults: make it a constant, or allowlist it",
		"internal/m/m.go:9: const bees/internal/m.fixtureOnly is referenced by no non-test file: delete it, move it into a _test.go file, or allowlist it",
		"testdata/config_allowlist.txt: stale entry bees/internal/m.Config.Gone: no such declaration in internal/",
		"testdata/config_allowlist.txt: stale entry bees/internal/m.Config.NowVaried: it is varied and referenced",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// auditDecl is one declaration of non-test internal/ code the audit
// judges: a package-level type, const or var, or a struct field.
type auditDecl struct {
	pos    string // file:line of the declaration
	kind   string // "type", "const", "var" or "field"
	knob   bool   // a field of a *Config or *Options struct
	varied bool   // a knob set somewhere outside defaulting code
	used   bool   // referenced by some non-test file
}

// configProblems returns one message per unvaried knob and unreferenced
// declaration missing from allow and per stale allow entry, sorted.
func configProblems(decls map[string]auditDecl, allow map[string]string) []string {
	var out []string
	for name, d := range decls {
		if allow[name] != "" {
			continue
		}
		if d.knob && !d.varied {
			out = append(out, fmt.Sprintf("%s: %s %s is set only by its defaults: make it a constant, or allowlist it", d.pos, d.kind, name))
		}
		if !d.used {
			out = append(out, fmt.Sprintf("%s: %s %s is referenced by no non-test file: delete it, move it into a _test.go file, or allowlist it", d.pos, d.kind, name))
		}
	}
	for name := range allow {
		d, ok := decls[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: stale entry %s: no such declaration in internal/", configAllowlist, name))
		case d.used && (d.varied || !d.knob):
			out = append(out, fmt.Sprintf("%s: stale entry %s: it is varied and referenced", configAllowlist, name))
		}
	}
	sort.Strings(out)
	return out
}

// auditPkg is one type-checking unit: a package with its in-package
// test files, or an external _test package.
type auditPkg struct {
	path  string
	files []*ast.File
}

// auditModule type-checks every package of the module rooted at root,
// test files included, and returns the audited declarations keyed by
// name ("bees/internal/core.Config.SSMM", "bees/internal/wire.Kind").
// An import is type-checked again without its tests, so an object seen
// through an import is a different value from the one its own package's
// check declares. Both checks read the same parsed files, so
// declarations are matched across checks by position.
func auditModule(root string) (map[string]auditDecl, error) {
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, root)
	if err != nil {
		return nil, err
	}
	decls := map[string]auditDecl{}
	byPos := map[token.Pos]string{} // declaration position -> name
	imp := &moduleImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			if isTestFile(fset, f) {
				continue
			}
			imp.files[p.path] = append(imp.files[p.path], f)
			if strings.HasPrefix(p.path, "bees/internal/") {
				collectDecls(fset, p.path, f, decls, byPos)
			}
		}
	}
	for _, p := range pkgs {
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.path, fset, p.files, info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.path, err)
		}
		markUses(fset, p.files, info, decls, byPos)
	}
	return decls, nil
}

// moduleImporter type-checks an import of the module's own packages
// from the non-test files parseModule read, once each, and leaves the
// standard library to the source importer. (The source importer alone
// would resolve every module import through go/build, which runs
// `go list` each time.)
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	std   types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, nil)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// parseModule parses every buildable .go file under root outside
// testdata, grouped into type-checking units.
func parseModule(fset *token.FileSet, root string) ([]auditPkg, error) {
	units := map[string]*auditPkg{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := "bees"
		if rel := filepath.ToSlash(filepath.Clean(dir)); rel != "." {
			pkgPath += "/" + rel
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkgPath += "_test"
		}
		u := units[pkgPath]
		if u == nil {
			u = &auditPkg{path: pkgPath}
			units[pkgPath] = u
		}
		u.files = append(u.files, f)
		return nil
	})
	var out []auditPkg
	for _, u := range units {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, err
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
}

// collectDecls records the package-level types, consts and vars of f
// and the fields of its struct types.
func collectDecls(fset *token.FileSet, pkg string, f *ast.File, decls map[string]auditDecl, byPos map[token.Pos]string) {
	add := func(name string, id *ast.Ident, kind string, knob bool, used bool) {
		p := fset.Position(id.Pos())
		decls[name] = auditDecl{pos: fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line), kind: kind, knob: knob, used: used}
		byPos[id.Pos()] = name
	}
	var fields func(prefix string, st *ast.StructType, knob bool)
	fields = func(prefix string, st *ast.StructType, knob bool) {
		for _, fld := range st.Fields.List {
			for _, id := range fld.Names {
				if id.Name == "_" {
					continue
				}
				add(prefix+"."+id.Name, id, "field", knob, fld.Tag != nil)
				if inner, ok := fld.Type.(*ast.StructType); ok {
					fields(prefix+"."+id.Name, inner, false)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				name := pkg + "." + s.Name.Name
				add(name, s.Name, "type", false, false)
				if st, ok := s.Type.(*ast.StructType); ok {
					knob := strings.HasSuffix(s.Name.Name, "Config") || strings.HasSuffix(s.Name.Name, "Options")
					fields(name, st, knob)
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.Name != "_" {
						add(pkg+"."+id.Name, id, gd.Tok.String(), false, false)
					}
				}
			}
		}
	}
}

// markUses records, for the declarations one type-checked unit refers
// to, whether a non-test file references them and whether a knob is set
// outside defaulting code.
func markUses(fset *token.FileSet, files []*ast.File, info *types.Info, decls map[string]auditDecl, byPos map[token.Pos]string) {
	lookup := func(obj types.Object) (string, bool) {
		if obj == nil {
			return "", false
		}
		name, ok := byPos[obj.Pos()]
		return name, ok
	}
	for id, obj := range info.Uses {
		if name, ok := lookup(obj); ok && !strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") {
			d := decls[name]
			d.used = true
			decls[name] = d
		}
	}
	for _, f := range files {
		markSets(fset, f, info, decls, lookup)
	}
}

// markSets records the knobs f sets outside defaulting code. An
// unkeyed literal names no field, so in a non-test file it also counts
// as a reference to every field it sets.
func markSets(fset *token.FileSet, f *ast.File, info *types.Info, decls map[string]auditDecl, lookup func(types.Object) (string, bool)) {
	test := isTestFile(fset, f)
	for _, decl := range f.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		defaulting := fn == "withDefaults" || strings.HasPrefix(fn, "Default") || strings.HasPrefix(fn, "New")
		set := func(obj types.Object, unkeyed bool) {
			name, ok := lookup(obj)
			if !ok {
				return
			}
			d := decls[name]
			d.varied = d.varied || !defaulting
			d.used = d.used || unkeyed && !test
			decls[name] = d
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
							set(v, false)
						}
					}
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set(info.Uses[kv.Key.(*ast.Ident)], false)
					} else {
						set(st.Field(i), true)
					}
				}
			}
			return true
		})
	}
}
