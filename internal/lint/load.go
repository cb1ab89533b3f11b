package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("ashs/internal/sim")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the module's packages using only the
// standard library: module-local imports resolve by directory under the
// module root, and standard-library imports type-check from GOROOT
// source via go/importer's "source" compiler (the repo is intentionally
// dependency-free, so no third-party resolution is needed — or possible).
type Loader struct {
	ModRoot string // directory containing go.mod
	ModPath string // module path from go.mod ("ashs")

	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*Package       // loaded-for-analysis, by import path
	types map[string]*types.Package // type-only dependency cache
}

// NewLoader builds a loader for the module rooted at modRoot, reading
// the module path from its go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("ashlint: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("ashlint: no module line in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		types:   map[string]*types.Package{},
	}, nil
}

// FindModRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("ashlint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// goFiles lists a directory's non-test .go files that the default build
// context selects (build constraints, GOOS/GOARCH suffixes), sorted.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// parseDir parses a directory's non-test files with comments.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir type-checks the package in dir under importPath, with full
// syntax and type info retained for analysis.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("ashlint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("ashlint: type-checking %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	l.types[importPath] = tpkg
	return p, nil
}

// Import implements types.Importer: module-local paths load from the
// module tree; everything else falls back to GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.types[path]; ok {
		return p, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		// Module-local dependencies get the same full LoadDir treatment as
		// analysis roots so every importer sees one *types.Package identity
		// per path, however the package was first reached.
		dir := filepath.Join(l.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/"))
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	tpkg, err := l.std.ImportFrom(path, l.ModRoot, 0)
	if err == nil {
		l.types[path] = tpkg
	}
	return tpkg, err
}

// LoadAll loads every package in the module whose directory matches one
// of the patterns ("./..." loads everything; "dir/..." a subtree; a
// plain relative dir exactly itself). Directories named testdata, hidden
// directories, and directories without non-test Go files are skipped.
func (l *Loader) LoadAll(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	type pat struct {
		rel  string // cleaned, relative to modroot
		tree bool
	}
	var pats []pat
	for _, p := range patterns {
		tree := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			tree = true
			p = rest
			if p == "." || p == "" {
				pats = append(pats, pat{"", true})
				continue
			}
		}
		rel := filepath.Clean(p)
		if rel == "." {
			rel = ""
		}
		pats = append(pats, pat{rel, tree})
	}
	match := func(rel string) bool {
		for _, p := range pats {
			if p.tree && (p.rel == "" || rel == p.rel || strings.HasPrefix(rel, p.rel+"/")) {
				return true
			}
			if !p.tree && rel == p.rel {
				return true
			}
		}
		return false
	}

	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		names, err := goFiles(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(l.ModRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		if len(names) > 0 && match(rel) {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var out []*Package
	for _, rel := range dirs {
		importPath := l.ModPath
		if rel != "" {
			importPath = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadDir(filepath.Join(l.ModRoot, rel), importPath)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
