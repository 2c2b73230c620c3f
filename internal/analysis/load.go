package analysis

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

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("nfvxai/internal/wire"). Path-scoped
	// analyzers match substrings of it.
	Path string
	// Dir is the package's directory on disk.
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader loads and type-checks packages of a single module from source.
// Imports within the module resolve against the module root; standard
// library imports type-check from GOROOT source via go/importer's
// "source" compiler, so no compiled export data or network is needed.
// Loaded packages are cached, so a Loader amortizes the (dominant) cost
// of type-checking the standard library across every package it loads.
type Loader struct {
	// ModRoot is the module root directory.
	ModRoot string
	// ModPath is the module path from go.mod.
	ModPath string
	// IncludeTests, when set, also parses _test.go files that belong to
	// the package itself (package foo, not foo_test external tests).
	IncludeTests bool

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*Package
}

// NewLoader returns a Loader rooted at modRoot for module modPath.
func NewLoader(modRoot, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:   map[string]*Package{},
	}
}

// ModuleInfo reads the module path out of dir's go.mod.
func ModuleInfo(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
}

// Load type-checks the package at the given import path (which must be
// the module path, or under it).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	names, err := goFilesIn(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// In-package test files share the package clause; external _test
	// packages are out of scope for the analyzers (they would need the
	// package under test compiled twice). Keep only the majority clause.
	files = samePackageFiles(files)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Syntax: files, Types: tpkg, TypesInfo: info}
	l.cache[path] = p
	return p, nil
}

// LoadPatterns expands "./..."-style patterns (relative to the module
// root) into packages and loads each. A plain relative dir loads that one
// package; a pattern ending in /... walks the tree, skipping testdata,
// hidden directories and directories without Go files.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			rest = strings.TrimSuffix(rest, "/")
			root := filepath.Join(l.ModRoot, rest)
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := filepath.Base(path)
				if base == "testdata" || (strings.HasPrefix(base, ".") && path != root) {
					return filepath.SkipDir
				}
				if names, err := goFilesIn(path, false); err == nil && len(names) > 0 && !seen[path] {
					seen[path] = true
					dirs = append(dirs, path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			dir := filepath.Join(l.ModRoot, pat)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (l *Loader) dirFor(path string) (string, error) {
	if path == l.ModPath {
		return l.ModRoot, nil
	}
	rel, ok := strings.CutPrefix(path, l.ModPath+"/")
	if !ok {
		return "", fmt.Errorf("analysis: import %q outside module %q", path, l.ModPath)
	}
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel)), nil
}

// goFilesIn lists the Go file names in dir that the default build
// context takes (GOOS and GOARCH file suffixes, //go:build lines), sorted.
func goFilesIn(dir string, includeTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// samePackageFiles keeps the files sharing the non-_test package clause
// (dropping external foo_test packages when tests are included).
func samePackageFiles(files []*ast.File) []*ast.File {
	want := ""
	for _, f := range files {
		name := f.Name.Name
		if !strings.HasSuffix(name, "_test") {
			want = name
			break
		}
	}
	if want == "" {
		return files
	}
	out := files[:0]
	for _, f := range files {
		if f.Name.Name == want {
			out = append(out, f)
		}
	}
	return out
}

// loaderImporter adapts Loader to types.ImporterFrom: module-internal
// imports load recursively through the Loader (and its cache); everything
// else — the standard library — goes through the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		// Imported dependencies are always loaded without test files:
		// IncludeTests applies only to the package under analysis.
		saved := l.IncludeTests
		l.IncludeTests = false
		p, err := l.Load(path)
		l.IncludeTests = saved
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
