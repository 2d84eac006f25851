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
	"strconv"
	"strings"
)

// Package is one type-checked module package as the checks see it.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, parsed with comments
	Info  *types.Info
	Types *types.Package

	modRoot string // module root, for root-relative finding paths
}

// Position resolves a token.Pos to a module-root-relative file path plus
// line and column, the coordinates findings are reported in.
func (p *Package) Position(pos token.Pos) (file string, line, col int) {
	ps := p.Fset.Position(pos)
	file = ps.Filename
	if rel, err := filepath.Rel(p.modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return filepath.ToSlash(file), ps.Line, ps.Column
}

// load parses and type-checks every package in the module rooted at dir,
// returning them sorted by import path along with the module path.
//
// The walk skips testdata, vendor, hidden and underscore directories and
// _test.go files. Type-checking resolves module-internal imports from the
// freshly checked packages (in dependency order) and everything else through
// the compiler's source importer, so the loader needs no toolchain
// invocation and no network — go/parser + go/types end to end.
func load(dir string) ([]*Package, string, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, "", err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, "", err
	}

	fset := token.NewFileSet()
	type srcPkg struct {
		path, dir string
		files     []*ast.File
		imports   []string
	}
	byPath := make(map[string]*srcPkg)

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		sp := byPath[importPath]
		if sp == nil {
			sp = &srcPkg{path: importPath, dir: dir}
			byPath[importPath] = sp
		}
		sp.files = append(sp.files, file)
		for _, imp := range file.Imports {
			if v, err := strconv.Unquote(imp.Path.Value); err == nil {
				sp.imports = append(sp.imports, v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}

	// Topologically order module packages so each type-checks after its
	// module-internal dependencies.
	var order []*srcPkg
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(sp *srcPkg) error
	visit = func(sp *srcPkg) error {
		switch state[sp.path] {
		case 1:
			return fmt.Errorf("import cycle through %s", sp.path)
		case 2:
			return nil
		}
		state[sp.path] = 1
		deps := append([]string(nil), sp.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if d := byPath[dep]; d != nil {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[sp.path] = 2
		order = append(order, sp)
		return nil
	}
	roots := make([]string, 0, len(byPath))
	for p := range byPath {
		roots = append(roots, p)
	}
	sort.Strings(roots)
	for _, p := range roots {
		if err := visit(byPath[p]); err != nil {
			return nil, "", err
		}
	}

	imp := &moduleImporter{
		checked: make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, sp := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		tc := types.Config{Importer: imp}
		tpkg, err := tc.Check(sp.path, fset, sp.files, info)
		if err != nil {
			return nil, "", fmt.Errorf("typecheck %s: %w", sp.path, err)
		}
		imp.checked[sp.path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:    sp.path,
			Dir:     sp.dir,
			Fset:    fset,
			Files:   sp.files,
			Info:    info,
			Types:   tpkg,
			modRoot: root,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, module, nil
}

// moduleImporter resolves module-internal imports from the already-checked
// set and delegates everything else (the standard library) to the source
// importer. unsafe is special-cased per the go/types contract.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading module file: %w (pass Config.Dir = module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}
