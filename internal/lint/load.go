package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Load resolves package patterns into parsed, type-checked packages. A
// pattern is either a directory or a go-tool-style recursive pattern
// ending in "/..." (the bare "./..." lints everything under the current
// directory); a .go file or a directory outside any Go module is a load
// error. Test files (_test.go) and the directories the go tool ignores
// (testdata, vendor, and names starting with "." or "_") are skipped: the
// determinism contract governs simulation code, while tests are free to
// use stdlib rand for testing/quick interop and wall-clock timing.
//
// Packages are type-checked against the whole module graph: every
// package of the module is parsed once and checked in import dependency
// order, so cross-package types — *sim.RNG receivers, sync.WaitGroup
// fields, map types declared two packages away — resolve exactly. Imports
// outside the module (the standard library) come from compiled export
// data via go/importer, with an empty stub as the last resort, so
// analysis still never requires the lint target to build.
func Load(patterns ...string) ([]*Package, error) {
	dirs, err := expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loadPackageDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// expand resolves patterns into package directories.
func expand(patterns []string) (dirs []string, err error) {
	seen := make(map[string]bool)
	addDir := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if path != root && skipDirName(d.Name()) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					addDir(path)
				}
				return nil
			})
			if walkErr != nil {
				return nil, fmt.Errorf("lint: walk %s: %w", pat, walkErr)
			}
		default:
			info, statErr := os.Stat(pat)
			if statErr != nil {
				return nil, fmt.Errorf("lint: %w", statErr)
			}
			if !info.IsDir() {
				return nil, fmt.Errorf("lint: %s is not a directory (patterns name packages, not files)", pat)
			}
			addDir(pat)
		}
	}
	return dirs, nil
}

// skipDirName reports whether a directory name is one the go tool ignores.
func skipDirName(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if lintable(e) {
			return true
		}
	}
	return false
}

func lintable(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// loadPackageDir loads one requested directory through the graph of the
// module it sits in.
func loadPackageDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	root := findModuleRoot(abs)
	if root == "" {
		return nil, fmt.Errorf("lint: %s is outside any Go module", dir)
	}
	mod, err := getModule(root)
	if err != nil {
		return nil, err
	}
	return mod.packageFor(dir, abs)
}

// ---------------------------------------------------------------------------
// Module graph
// ---------------------------------------------------------------------------

// module is one fully loaded Go module: every non-test package parsed and
// type-checked in import dependency order against a shared FileSet. Module
// graphs are cached per root for the life of the process — the loader is
// an analysis snapshot, not a watcher.
type module struct {
	root string // absolute module root (directory containing go.mod)
	path string // module path from the go.mod module directive
	fset *token.FileSet

	byRel    map[string]*Package       // checked module packages by slash-relative dir
	typed    map[string]*types.Package // resolved packages by import path (module + imported)
	fallback types.Importer            // export-data importer for non-module imports

	// mu guards typed and extra for post-build on-demand loads (testdata
	// fixtures): the build itself runs single-threaded under the registry
	// lock.
	mu    sync.Mutex
	extra map[string]*Package // on-demand packages by absolute dir
}

var (
	moduleMu sync.Mutex
	modules  = make(map[string]*module)
)

// getModule returns the cached graph for root, building it on first use.
func getModule(root string) (*module, error) {
	moduleMu.Lock()
	defer moduleMu.Unlock()
	if m, ok := modules[root]; ok {
		return m, nil
	}
	m, err := buildModule(root)
	if err != nil {
		return nil, err
	}
	modules[root] = m
	return m, nil
}

// rawPkg is one parsed-but-unchecked module package.
type rawPkg struct {
	rel  string
	pkg  *Package
	asts []*ast.File
	deps []string // module-internal dependency rels
}

// buildModule parses every package under root and type-checks them in
// dependency order, so each package's Info sees fully resolved imports.
func buildModule(root string) (*module, error) {
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &module{
		root:     root,
		path:     path,
		fset:     fset,
		byRel:    make(map[string]*Package),
		typed:    make(map[string]*types.Package),
		fallback: importer.ForCompiler(fset, "gc", nil),
		extra:    make(map[string]*Package),
	}

	var rels []string
	walkErr := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != root && skipDirName(d.Name()) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rels = append(rels, relOf(root, p))
		}
		return nil
	})
	if walkErr != nil {
		return nil, fmt.Errorf("lint: walk module %s: %w", root, walkErr)
	}
	sort.Strings(rels)

	parsed := make(map[string]*rawPkg, len(rels))
	for _, rel := range rels {
		raw, err := m.parseDir(filepath.Join(root, filepath.FromSlash(rel)), rel)
		if err != nil {
			return nil, err
		}
		if raw != nil {
			parsed[rel] = raw
		}
	}

	// Depth-first over module-internal imports: dependencies check first,
	// so importers always serve an already-resolved types.Package. Cycles
	// cannot occur in compiling Go code; if one sneaks in, the in-progress
	// package simply resolves through the stub fallback.
	state := make(map[string]int) // 0 new, 1 in progress, 2 done
	var check func(rel string)
	check = func(rel string) {
		raw, ok := parsed[rel]
		if !ok || state[rel] != 0 {
			return
		}
		state[rel] = 1
		for _, dep := range raw.deps {
			check(dep)
		}
		m.checkPackage(raw)
		state[rel] = 2
	}
	for _, rel := range rels {
		check(rel)
	}
	return m, nil
}

// parseDir parses the lintable files of one module directory. Returns nil
// when the directory has no lintable files.
func (m *module) parseDir(dir, rel string) (*rawPkg, error) {
	paths, err := lintablePaths(dir)
	if err != nil || len(paths) == 0 {
		return nil, err
	}
	raw := &rawPkg{rel: rel, pkg: newPackage(dir, rel)}
	depSet := make(map[string]bool)
	for _, p := range paths {
		f, err := m.parseInto(raw.pkg, p)
		if err != nil {
			return nil, err
		}
		raw.asts = append(raw.asts, f)
		for _, imp := range f.Imports {
			if dep, ok := m.relForImport(importPath(imp)); ok && !depSet[dep] {
				depSet[dep] = true
				raw.deps = append(raw.deps, dep)
			}
		}
	}
	sort.Strings(raw.deps)
	return raw, nil
}

// parseInto parses one file and appends it to pkg's file list.
func (m *module) parseInto(pkg *Package, path string) (*ast.File, error) {
	parsed, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	f := &File{Path: path, Fset: m.fset, AST: parsed, Pkg: pkg}
	f.buildAllowIndex()
	pkg.Files = append(pkg.Files, f)
	return parsed, nil
}

// checkPackage type-checks one parsed package with module-graph imports
// and records the result for downstream importers.
func (m *module) checkPackage(raw *rawPkg) {
	conf := types.Config{
		Error:       func(error) {}, // keep going past residual errors
		Importer:    (*moduleImporter)(m),
		FakeImportC: true,
	}
	tpkg, _ := conf.Check(m.importPathFor(raw.rel), m.fset, raw.asts, raw.pkg.Info)
	if tpkg != nil {
		if !tpkg.Complete() {
			tpkg.MarkComplete()
		}
		m.typed[m.importPathFor(raw.rel)] = tpkg
	}
	m.byRel[raw.rel] = raw.pkg
}

// packageFor returns the graph package for a requested directory, loading
// on demand for directories the graph walk skips (testdata fixtures).
func (m *module) packageFor(dir, abs string) (*Package, error) {
	rel := relOf(m.root, abs)
	if pkg, ok := m.byRel[rel]; ok {
		return pkg, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if pkg, ok := m.extra[abs]; ok {
		return pkg, nil
	}
	paths, err := lintablePaths(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := m.checkFiles(dir, rel, paths)
	if err != nil {
		return nil, err
	}
	if pkg != nil {
		m.extra[abs] = pkg
	}
	return pkg, nil
}

// checkFiles parses and type-checks an on-demand file set against the
// module graph. Callers hold m.mu.
func (m *module) checkFiles(dir, rel string, paths []string) (*Package, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	pkg := newPackage(dir, rel)
	var asts []*ast.File
	for _, p := range paths {
		f, err := m.parseInto(pkg, p)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	conf := types.Config{
		Error:       func(error) {},
		Importer:    (*moduleImporter)(m),
		FakeImportC: true,
	}
	_, _ = conf.Check(m.importPathFor(rel), m.fset, asts, pkg.Info)
	return pkg, nil
}

// relForImport maps a module-internal import path to its directory rel.
func (m *module) relForImport(path string) (string, bool) {
	if path == m.path {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, m.path+"/"); ok {
		return rest, true
	}
	return "", false
}

// importPathFor is the inverse of relForImport.
func (m *module) importPathFor(rel string) string {
	if rel == "." {
		return m.path
	}
	return m.path + "/" + rel
}

// moduleImporter serves imports during type checking: already-checked
// module packages first, compiled export data (the standard library) next,
// and an empty stub package as the never-fails last resort.
type moduleImporter module

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if t, ok := m.typed[path]; ok {
		return t, nil
	}
	if t, err := m.fallback.Import(path); err == nil && t != nil {
		m.typed[path] = t
		return t, nil
	}
	stub := types.NewPackage(path, pathBase(path))
	stub.MarkComplete()
	m.typed[path] = stub
	return stub, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// findModuleRoot walks up from abs to the nearest directory containing a
// go.mod, or "" when there is none.
func findModuleRoot(abs string) string {
	for probe := abs; ; {
		if _, err := os.Stat(filepath.Join(probe, "go.mod")); err == nil {
			return probe
		}
		parent := filepath.Dir(probe)
		if parent == probe {
			return ""
		}
		probe = parent
	}
}

// relOf returns abs relative to root, slash-separated ("." for the root).
func relOf(root, abs string) string {
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return filepath.ToSlash(filepath.Clean(abs))
	}
	return filepath.ToSlash(rel)
}

// lintablePaths lists the non-test .go files of dir, sorted.
func lintablePaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if lintable(e) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// newPackage allocates a Package with an empty, never-nil Info.
func newPackage(dir, rel string) *Package {
	return &Package{
		Dir: dir,
		Rel: rel,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
}

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
