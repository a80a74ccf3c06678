package bwpart_test

import (
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
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions declared under internal/ that no
// non-test file calls but that stay, each with the reason it stays. Keys are
// the package's path below internal/, then the receiver type (if any), then
// the name.
var testOnlyAllowed = map[string]string{
	// Callers that ROADMAP names.
	"core.DistanceStudy":                     "paper check (Sec. III-F, Eq. 6); ROADMAP items 7 and 14 give it a caller",
	"core.CloserIsBetter":                    "paper check (Sec. III-F, Eq. 6); ROADMAP items 7 and 14 give it a caller",
	"core.CauchyOrdering":                    "paper check (Sec. III-F, Eq. 6); ROADMAP items 7 and 14 give it a caller",
	"dram.Config.PeakAPC":                    "the DRAM peak in accesses per cycle; ROADMAP item 6(b) gives it a caller",
	"memctrl.Controller.SetCompletionTracer": "completion-stream witness; ROADMAP item 9 gives it a caller",
	"exper.Table.Column":                     "reads a study's table; ROADMAP item 14's paper claims call it",
	"exper.Table.BestInColumn":               "reads a study's table; ROADMAP item 14's paper claims call it",
	"exper.Table.BestInRow":                  "reads a study's table; ROADMAP item 14's paper claims call it",
	// Test seams: tests substitute through them.
	"exper.CheckpointStore.SetLogf":  "seam: faults_test.go asserts the degradation is logged exactly once",
	"faultinject.New":                "seam: tests build their own injector",
	"faultinject.Injector.Arm":       "seam: tests arm fault sites",
	"faultinject.Injector.Disarm":    "seam: tests disarm one fault site",
	"faultinject.Injector.DisarmAll": "seam: tests disarm every fault site",
	"faultinject.Injector.Fired":     "seam: tests read how often a site fired",
	"faultinject.Injector.Total":     "seam: tests read how often any site fired",
	// Facade API.
	"exper.Runner.TraceCell":  "facade: the README trace recipe and ExampleRunner_TraceCell",
	"trace.Writer.Append":     "facade: the README trace recipe feeds TraceCell into it",
	"trace.Writer.Count":      "facade: the README trace recipe reports it",
	"exper.ResultCache.Bytes": "facade: the resident size of a bwpart.ResultCache shared across runners",
	"sim.System.Now":          "facade: the clock of bwpart.System",
}

// TestNoTestOnlyCode fails on every function or method declared in a
// non-test file under internal/ that no non-test file of this module or of a
// module nested in it (bench/) uses, unless testOnlyAllowed names it. Uses
// are resolved by go/types, so a method whose name collides with a field or
// with another type's method is told apart from them. A method is exempt
// when an interface method that production code uses carries its name (it
// may be reached through that interface), and so are Error, String and
// Unwrap, which the standard library calls through its own interfaces. A
// function that only an unused one calls counts as used until that one goes.
func TestNoTestOnlyCode(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[*types.Func]bool{}
	ifaceNames := map[string]bool{"Error": true, "String": true, "Unwrap": true}
	for _, obj := range prog.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		used[fn.Origin()] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceNames[fn.Name()] = true
		}
	}

	flagged := map[string]token.Position{}
	for _, p := range prog.pkgs {
		rel, ok := strings.CutPrefix(p.dir, "internal"+string(filepath.Separator))
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				fn := prog.info.Defs[d.Name].(*types.Func)
				if used[fn] {
					continue
				}
				key := filepath.ToSlash(rel) + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if ifaceNames[fn.Name()] {
						continue
					}
					named := recv.Type()
					if ptr, ok := named.(*types.Pointer); ok {
						named = ptr.Elem()
					}
					key = filepath.ToSlash(rel) + "." + named.(*types.Named).Obj().Name() + "." + fn.Name()
				}
				flagged[key] = prog.fset.Position(d.Pos())
			}
		}
	}

	var keys []string
	for k := range flagged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := testOnlyAllowed[k]; !ok {
			t.Errorf("%s: %s is declared in a non-test file but no non-test file uses it: delete it, or add it to testOnlyAllowed with the reason it stays", flagged[k], k)
		}
	}
	for k := range testOnlyAllowed {
		if _, ok := flagged[k]; !ok {
			t.Errorf("testOnlyAllowed names %s, which is gone or has a non-test caller: remove the entry", k)
		}
	}
}

// program is every non-test package below a root directory, type-checked
// from source into one types.Info. Nested modules (a directory holding its
// own go.mod) are loaded too, under their own module path.
type program struct {
	fset *token.FileSet
	info *types.Info
	std  types.Importer
	pkgs map[string]*srcPackage // by import path
}

type srcPackage struct {
	dir   string
	files []*ast.File
	types *types.Package // nil until type-checked
}

func loadProgram(root string) (*program, error) {
	p := &program{
		fset: token.NewFileSet(),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std:  importer.Default(),
		pkgs: map[string]*srcPackage{},
	}
	if err := p.addModule(root); err != nil {
		return nil, err
	}
	for importPath := range p.pkgs {
		if _, err := p.Import(importPath); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// addModule parses the package directories of the module rooted at modDir,
// and of every module nested in it.
func (p *program) addModule(modDir string) error {
	mod, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return err
	}
	modPath := moduleLine(string(mod))
	if modPath == "" {
		return fmt.Errorf("%s: no module line", filepath.Join(modDir, "go.mod"))
	}
	return filepath.WalkDir(modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == modDir {
			return p.addDir(modPath, path)
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			if err := p.addModule(path); err != nil {
				return err
			}
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(modDir, path)
		if err != nil {
			return err
		}
		return p.addDir(modPath+"/"+filepath.ToSlash(rel), path)
	})
}

// addDir parses dir's non-test Go files that the build constraints select
// and, when there are any, records them as the package importPath.
func (p *program) addDir(importPath, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	pkg := &srcPackage{dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg.files = append(pkg.files, f)
	}
	if len(pkg.files) > 0 {
		p.pkgs[importPath] = pkg
	}
	return nil
}

func moduleLine(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`)
		}
	}
	return ""
}

// Import type-checks a package of the program from source, once, and hands
// every other import to the standard library's export data.
func (p *program) Import(path string) (*types.Package, error) {
	pkg, ok := p.pkgs[path]
	if !ok {
		return p.std.Import(path)
	}
	if pkg.types != nil {
		return pkg.types, nil
	}
	var firstErr error
	conf := types.Config{Importer: p, Error: func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}}
	checked, _ := conf.Check(path, p.fset, pkg.files, p.info)
	if firstErr != nil {
		return nil, firstErr
	}
	pkg.types = checked
	return checked, nil
}
