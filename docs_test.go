package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsMatchCode holds README.md and DESIGN.md to the code they
// describe: every dotted Go name they put in backticks is declared by the
// module's non-test code, every repository path they name exists, and every
// "DESIGN.md §N" in a .go, .md or .yml file names a section DESIGN.md has.
// DESIGN.md's Deleted designs section names what is gone on purpose and is
// not checked.
func TestDocsMatchCode(t *testing.T) {
	decls, err := moduleDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := designSections(string(design))
	var problems []string
	for _, name := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, checkDoc(name, string(text), decls, ".")...)
	}
	err = walkRepo(".", func(path string) error {
		switch filepath.Ext(path) {
		case ".go", ".md", ".yml", ".yaml":
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			problems = append(problems, checkCitations(path, string(text), sections)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDocsCheckerReports shows the checks catching each kind of drift in a
// synthetic document, and passing the same kinds of reference when they are
// right.
func TestDocsCheckerReports(t *testing.T) {
	decls, err := moduleDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	// The citation is split across string literals so that this file
	// cites no section itself.
	doc := "Routes through `uarch.Run(ctx, tr, cfgs, pre)` and `uarch.NoSuchEngine`,\n" +
		"reads `internal/uarch/run.go` and `internal/nosuch/file.go`, calls\n" +
		"`Trace.ReplayContext` but not `Trace.NoSuchMethod`, times\n" +
		"`uarch.sweep_ms` with `sync.Pool`, serves `/metrics`, and cites DESIGN.md " + "§3 and §99.\n" +
		"```\nuarch.AlsoMissing in a code block is not a reference\n```\n"
	got := checkDoc("synthetic.md", doc, decls, ".")
	got = append(got, checkCitations("synthetic.md", doc, map[int]bool{3: true})...)
	want := []string{
		"synthetic.md:1: `uarch.NoSuchEngine` is not declared by the module's non-test code",
		"synthetic.md:2: `internal/nosuch/file.go` does not exist",
		"synthetic.md:3: `Trace.NoSuchMethod` is not declared by the module's non-test code",
		"synthetic.md:4: DESIGN.md " + "§99 names no section of DESIGN.md",
	}
	if !slices.Equal(got, want) {
		t.Errorf("checker reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// goDecls is what the module's non-test code declares.
type goDecls struct {
	pkgs    map[string]map[string]bool // package name → top-level names and methods
	types   map[string][]string        // type name → "pkg.Type" keys
	members map[string]map[string]bool // "pkg.Type" → field and method names
	std     map[string]bool            // standard-library packages the module imports
}

// moduleDecls parses every non-test .go file under root, leaving out
// directories with their own go.mod (svcbench) and testdata.
func moduleDecls(root string) (*goDecls, error) {
	d := &goDecls{
		pkgs:    map[string]map[string]bool{},
		types:   map[string][]string{},
		members: map[string]map[string]bool{},
		std:     map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == root {
				return nil
			}
			if name := e.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.Contains(strings.SplitN(p, "/", 2)[0], ".") && !strings.HasPrefix(p, "bsisa") {
				d.std[filepath.Base(p)] = true
			}
		}
		if !strings.HasSuffix(path, "_test.go") {
			d.addFile(f)
		}
		return nil
	})
	return d, err
}

func (d *goDecls) addFile(f *ast.File) {
	pkg := f.Name.Name
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]bool{}
	}
	top := d.pkgs[pkg]
	member := func(typ, name string) {
		key := pkg + "." + typ
		if d.members[key] == nil {
			d.members[key] = map[string]bool{}
		}
		d.members[key][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			// A method is also pkg.Method, the docs' shorthand for
			// pkg.Type.Method.
			top[decl.Name.Name] = true
			if decl.Recv != nil {
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					name := spec.Name.Name
					top[name] = true
					d.types[name] = append(d.types[name], pkg+"."+name)
					var fields *ast.FieldList
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields
					case *ast.InterfaceType:
						fields = typ.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(name, n.Name)
						}
					}
				}
			}
		}
	}
}

// declared reports whether the dotted name is pkg.Name, pkg.Type.Member or
// Type.Member of the module's code, or names a standard-library package's
// member.
func (d *goDecls) declared(name string) bool {
	parts := strings.Split(name, ".")
	if top, ok := d.pkgs[parts[0]]; ok {
		if !top[parts[1]] {
			return false
		}
		return len(parts) == 2 || d.members[parts[0]+"."+parts[1]][parts[2]]
	}
	if d.std[parts[0]] {
		return true
	}
	for _, key := range d.types[parts[0]] {
		if d.members[key][parts[1]] {
			return true
		}
	}
	return false
}

var (
	backtickSpan = regexp.MustCompile("`([^`\n]+)`")
	// A dotted Go name opening a span: pkg.Name, pkg.Type.Member or
	// Type.Member, perhaps called or followed by more text.
	dottedName = regexp.MustCompile(`^([A-Za-z]\w*(?:\.[A-Za-z]\w*)+)(?:$|[ ({\[,])`)
	// A path: slash-separated, or a file name with one of these extensions.
	pathLike      = regexp.MustCompile(`^[\w.\-/]+$`)
	pathExtension = regexp.MustCompile(`\.(go|md|json|txt|yml|yaml|sh)$`)
	designCite    = regexp.MustCompile(`DESIGN\.md §(\d+)((?:(?:,| and| or) §\d+)*)`)
	sectionNumber = regexp.MustCompile(`§(\d+)`)
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// checkDoc reports every backticked dotted Go name in text that the module
// does not declare and every repository path that does not exist under
// root. Fenced code blocks and a "Deleted designs" section are skipped;
// snake_case names (metric and span names such as svc.coalesced_ratio) are
// not Go names.
func checkDoc(name, text string, decls *goDecls, root string) []string {
	var problems []string
	fenced, deletedLevel := false, 0
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if level := len(line) - len(strings.TrimLeft(line, "#")); level > 0 && strings.HasPrefix(line[level:], " ") {
			switch {
			case strings.Contains(line, "Deleted designs"):
				deletedLevel = level
			case deletedLevel > 0 && level <= deletedLevel:
				deletedLevel = 0
			}
		}
		if deletedLevel > 0 {
			continue
		}
		for _, m := range backtickSpan.FindAllStringSubmatch(line, -1) {
			span := m[1]
			if pathLike.MatchString(span) && (strings.Contains(span, "/") || pathExtension.MatchString(span)) {
				if !pathExists(root, span) {
					problems = append(problems, fmt.Sprintf("%s:%d: `%s` does not exist", name, i+1, span))
				}
				continue
			}
			g := dottedName.FindStringSubmatch(span)
			if g == nil || strings.Contains(g[1], "_") {
				continue
			}
			if !decls.declared(g[1]) {
				problems = append(problems, fmt.Sprintf("%s:%d: `%s` is not declared by the module's non-test code", name, i+1, g[1]))
			}
		}
	}
	return problems
}

// pathExists reports whether a path a document names is in the repository.
// A path with a slash is relative to root when its first element is an
// entry of root; one whose first element is not (an output directory such
// as bsfuzz-artifacts/), and one with a leading slash (a host path or an
// HTTP path such as /metrics), is not a repository path. A bare file name
// may sit in any directory.
func pathExists(root, p string) bool {
	if first, _, ok := strings.Cut(p, "/"); ok {
		if first == "" {
			return true
		}
		if _, err := os.Stat(filepath.Join(root, first)); err != nil {
			return true
		}
		_, err := os.Stat(filepath.Join(root, p))
		return err == nil
	}
	found := false
	err := walkRepo(root, func(path string) error {
		if filepath.Base(path) == p {
			found = true
			return filepath.SkipAll
		}
		return nil
	})
	return err == nil && found
}

// walkRepo calls fn for every file under root, skipping hidden directories
// (.git, build output) other than .github.
func walkRepo(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return fn(path)
		case path != root && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github":
			return filepath.SkipDir
		}
		return nil
	})
}

// designSections returns the numbers of DESIGN.md's "## N. Title" headings.
func designSections(design string) map[int]bool {
	sections := map[int]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		n, _ := strconv.Atoi(m[1])
		sections[n] = true
	}
	return sections
}

// checkCitations reports every "DESIGN.md §N" in text, and every §N listed
// after it, that names no section of DESIGN.md.
func checkCitations(name, text string, sections map[int]bool) []string {
	var problems []string
	for i, line := range strings.Split(text, "\n") {
		for _, m := range designCite.FindAllString(line, -1) {
			for _, s := range sectionNumber.FindAllStringSubmatch(m, -1) {
				if n, _ := strconv.Atoi(s[1]); !sections[n] {
					problems = append(problems, fmt.Sprintf("%s:%d: DESIGN.md §%d names no section of DESIGN.md", name, i+1, n))
				}
			}
		}
	}
	return problems
}
