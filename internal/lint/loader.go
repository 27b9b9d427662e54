package lint

import (
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
)

// Package is one loaded, parsed and type-checked lint target.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// Path is the import path ("<module>/rel/dir"; the pseudo-path
	// "<path>_test" for an external test package).
	Path string
	// Fset is the file set shared by every package from one Loader.
	Fset *token.FileSet
	// Files are the parsed source files (tests included for targets).
	Files []*ast.File
	// Types and Info hold the go/types results.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems. Lint results for a
	// package that does not type-check are best-effort.
	TypeErrors []error
}

// Loader loads module-local packages from source. Imports within the
// module are resolved by mapping import paths onto the module root;
// standard-library imports are type-checked from GOROOT source via
// go/importer's "source" compiler (the stdlib path needs no module
// resolution, so the loader works offline and without x/tools).
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot and ModulePath are the enclosing module's directory
	// and declared path (from go.mod).
	ModuleRoot string
	ModulePath string

	std     types.ImporterFrom
	cache   map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        std,
		cache:      map[string]*types.Package{},
		loading:    map[string]bool{},
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and returns
// the module directory and declared module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		modFile := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(modFile); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					p := strings.TrimSpace(rest)
					p = strings.Trim(p, `"`)
					if p == "" {
						break
					}
					return d, p, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s has no module directive", modFile)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the patterns to package directories and returns one
// Package per target (plus one per external test package found). A
// pattern is either a directory or a "dir/..." wildcard; wildcard
// walks skip testdata, vendor and hidden/underscore directories, as
// the go tool does.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		loaded, err := l.loadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}

// expand turns patterns into a sorted, deduplicated list of package
// directories containing Go files.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if strings.HasSuffix(pat, "...") {
			base := strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, string(filepath.Separator))
			base = strings.TrimSuffix(base, "/")
			if base == "" {
				base = "."
			}
			absBase, err := filepath.Abs(base)
			if err != nil {
				return nil, err
			}
			err = filepath.WalkDir(absBase, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != absBase &&
					(name == "testdata" || name == "vendor" ||
						strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !hasGoFiles(abs) {
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		add(abs)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every .go file in dir (comments retained) and
// splits the files into the base package, in-package tests and
// external (_test package) tests.
func (l *Loader) parseDir(dir string) (base, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") &&
			!strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			base = append(base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return base, inTest, extTest, nil
}

// loadDir type-checks dir as a lint target: the base package together
// with its in-package test files, plus (when present) the external
// test package.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	base, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base)+len(inTest) == 0 && len(extTest) == 0 {
		return nil, fmt.Errorf("no buildable Go files")
	}
	var pkgs []*Package
	if files := append(append([]*ast.File{}, base...), inTest...); len(files) > 0 {
		pkgs = append(pkgs, l.check(path, dir, files))
	}
	if len(extTest) > 0 {
		pkgs = append(pkgs, l.check(path+"_test", dir, extTest))
	}
	return pkgs, nil
}

// check runs the type checker over files, tolerating type errors (they
// are recorded on the Package; lint results degrade gracefully).
func (l *Loader) check(path, dir string, files []*ast.File) *Package {
	pkg := &Package{
		Dir:   dir,
		Path:  path,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check records partial results in Info even on error; the error
	// itself is already captured by the Error hook above.
	pkg.Types, _ = conf.Check(path, l.Fset, files, pkg.Info)
	return pkg
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths are
// loaded from source relative to the module root, "unsafe" is the
// canonical unsafe package, everything else goes to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importModule(path)
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// importModule loads a module-local dependency (non-test files only,
// matching how the go tool builds imports) with cycle detection and
// memoization.
func (l *Loader) importModule(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.ModuleRoot
	if path != l.ModulePath {
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	base, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, base, nil)
	if err != nil && pkg == nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}
