// Package lint implements smartlint, the static half of the repo's
// determinism contract. The golden fixtures in internal/core pin the
// simulator's bit-identical replay property dynamically, but only on
// the configurations they sample; smartlint enforces the contract at
// the source level on every build, flagging the constructs that
// historically reintroduce nondeterminism into cycle-accurate
// simulators: map-order iteration, wall-clock reads, the global RNG,
// exact float comparison, and wall-time sleeps.
//
// The analyzer is stdlib-only. Package metadata and compiled export
// data come from `go list -export -deps -json`; sources are parsed
// with go/parser and checked with go/types, so every rule sees real
// type information (a range over a named map type or a comparison of
// defined float types is caught, not just the literal spellings).
package lint

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
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one rule violation at a source position. Its String
// form is the contract with CI: "file:line: rule: message"; the JSON
// tags are the contract with smartlint -json consumers.
type Diagnostic struct {
	Path    string `json:"path"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Path, d.Line, d.Rule, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path; rule exemptions key off it
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	// Types is the checked package object; the whole-program rules walk
	// its scope and imports for interface-implementation discovery.
	Types *types.Package
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Loader loads and type-checks packages using only the go toolchain.
// One Loader shares a FileSet, an export-data cache and an importer
// across every package it loads, so stdlib dependencies are resolved
// once per process.
type Loader struct {
	Dir string // working directory for go list invocations

	fset *token.FileSet
	imp  types.Importer

	//smartlint:allow concurrency — the analyzer is a build tool, not simulator code; guards the export cache
	mu      sync.Mutex
	exports map[string]string // import path -> compiled export data file
}

// NewLoader returns a Loader rooted at dir (the module root, or any
// directory below it).
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l
}

// Load lists the packages matching patterns, records export data for
// their whole dependency closure, and type-checks each matched package
// from source.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(append([]string{"-export", "-deps", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	l.mu.Lock()
	for _, p := range listed {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.mu.Unlock()
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		pkg, err := l.checkFiles(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkFiles parses the named files in dir and type-checks them as one
// package. Type-check failures are fatal: diagnostics from a
// half-resolved tree would be unreliable in both directions.
func (l *Loader) checkFiles(importPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Fset: l.fset, Files: files, Info: info, Types: tpkg}, nil
}

// lookupExport feeds compiled export data to the gc importer. Paths
// outside the cached closure (fixture imports such as "time" when only
// a testdata directory was loaded) are resolved with a further go list
// call and cached.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		listed, err := l.goList("-export", "-deps", "-json", path)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		for _, p := range listed {
			if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
		}
		file, ok = l.exports[path]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
	}
	return os.Open(file)
}

func (l *Loader) goList(args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Run loads the packages matching patterns relative to dir, checks
// every per-file rule and the whole-program rules, and returns the
// surviving diagnostics sorted by position, with file paths relative to
// dir where possible.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, err := NewLoader(dir).Load(patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, Check(p)...)
	}
	prog := NewProgram(pkgs)
	diags = append(diags, prog.Diagnostics()...)
	diags = append(diags, prog.CheckShardSafe()...)
	diags = append(diags, prog.CheckDigestPure()...)
	hot, err := prog.CheckHotAlloc(dir)
	if err != nil {
		return nil, err
	}
	diags = append(diags, hot...)
	if abs, err := filepath.Abs(dir); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(abs, diags[i].Path); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].Path = rel
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Path != diags[j].Path {
			return diags[i].Path < diags[j].Path
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Message < diags[j].Message
	})
}
