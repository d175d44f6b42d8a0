package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// The loader shells out to the go toolchain instead of depending on
// golang.org/x/tools/go/packages: `go list -export -deps -json` yields,
// for every package in the build (stdlib included), the export-data file
// the compiler produced for it, and the stdlib gc importer reads those
// files back. Module packages are then re-parsed and type-checked from
// source so analyzers see full ASTs; their dependencies resolve through
// export data, so no topological source ordering is needed.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load builds a Program for the given package patterns (default "./...")
// rooted at dir. Every package of the surrounding module that appears in
// the dependency graph is source-loaded and analyzable.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Export,Standard,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil && len(p.GoFiles) > 0 {
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	prog := &Program{Fset: fset}
	for _, t := range targets {
		pkg, err := loadSource(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	return prog, nil
}

// loadSource parses and type-checks one package from source. File names
// may be bare (relative to dir) or absolute.
func loadSource(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, name := range fileNames {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.parseAnnotations(fset, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: type-check: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// SourceSpec names one package to load from explicit source files
// (the analysistest fixture loader).
type SourceSpec struct {
	Path  string
	Dir   string
	Files []string // absolute or Dir-relative
}

// LoadSpecs type-checks the given packages in order (dependencies
// first); imports resolve against already-loaded specs, then against
// the export-data files in exports (as produced by `go list -export`).
func LoadSpecs(specs []SourceSpec, exports map[string]string) (*Program, error) {
	fset := token.NewFileSet()
	loaded := make(map[string]*types.Package)
	imp := chainImporter{
		loaded: loaded,
		fallback: newExportImporter(fset, func(path string) (string, bool) {
			f, ok := exports[path]
			return f, ok
		}),
	}
	prog := &Program{Fset: fset}
	for _, s := range specs {
		pkg, err := loadSource(fset, imp, s.Path, s.Dir, s.Files)
		if err != nil {
			return nil, err
		}
		loaded[s.Path] = pkg.Types
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// chainImporter resolves source-loaded packages before falling back to
// export data, and handles "unsafe" itself.
type chainImporter struct {
	loaded   map[string]*types.Package
	fallback types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := c.loaded[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}

// ExportData runs `go list -export` for the given import paths (plus
// their dependencies) rooted at dir and returns path -> export file.
// Used by test fixtures to resolve stdlib imports offline: the
// toolchain builds export data into its local cache.
func ExportData(dir string, paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %w\n%s", strings.Join(paths, " "), err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// newExportImporter returns an importer resolving dependencies through
// compiler export data located by find. One importer is shared across
// every package of a load so imported package identities coincide.
func newExportImporter(fset *token.FileSet, find func(path string) (string, bool)) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := find(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
