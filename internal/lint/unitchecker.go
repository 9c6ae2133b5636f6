package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
)

// This file implements the protocol `go vet -vettool=prog` speaks to an
// analysis tool, with only the standard library (the canonical
// implementation lives in golang.org/x/tools' unitchecker, which this
// module does not depend on). The go command probes the tool three
// ways:
//
//   - `prog -V=full` must print a stable version line (hashed into the
//     build cache key);
//   - `prog -flags` must print a JSON description of the tool's flags,
//     so `go vet -vettool=prog -json ./...` knows -json is ours;
//   - `prog [flags] <unit>.cfg` analyzes one compilation unit described
//     by the JSON config file: file list, import map, and export-data
//     locations for every dependency (type-checking uses those, so no
//     source re-resolution happens).
//
// Invoked any other way, the tool re-executes itself through
// `go vet -vettool=<self>`, which is also the documented CI invocation.

// vetConfig mirrors the fields of the config file the go command writes
// for each vet unit (cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string
	GoFiles    []string
	NonGoFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool

	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// jsonDiagnostic is the machine-readable shape -json emits, one object
// per line, for editor integration.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// VettoolMain is the entry point of cmd/pdmlint. It returns the process
// exit code: 0 for success, 2 when diagnostics were reported (matching
// go vet's convention), 1 for operational errors.
func VettoolMain(progname string, args []string, stdout, stderr io.Writer) int {
	jsonOut := false
	rest := make([]string, 0, len(args))
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full" || a == "-V":
			fmt.Fprintln(stdout, versionLine(progname))
			return 0
		case a == "-flags" || a == "--flags":
			fmt.Fprintln(stdout, `[{"Name":"json","Bool":true,"Usage":"emit one JSON diagnostic per line (file, line, col, rule, message) on stdout"}]`)
			return 0
		case a == "-json" || a == "-json=true" || a == "--json":
			jsonOut = true
		case a == "-json=false":
			jsonOut = false
		case a == "-h" || a == "-help" || a == "--help":
			usage(progname, stderr)
			return 0
		default:
			rest = append(rest, a)
		}
	}
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analyzeUnit(rest[0], jsonOut, stdout, stderr)
	}
	if len(rest) == 0 {
		usage(progname, stderr)
		return 1
	}
	return reexecVet(jsonOut, rest, stdout, stderr)
}

func usage(progname string, w io.Writer) {
	fmt.Fprintf(w, `usage: %[1]s [-json] <packages>

%[1]s enforces the repo's I/O-accounting, determinism, and concurrency
invariants (analyzers: iocharge, detrand, lockorder, guardedby; plus
unusedwaiver, reported by the runner for stale or misnamed escape
hatches). Given package patterns it runs itself
through the toolchain:

    go vet -vettool=$(which %[1]s) ./...

Waive a deliberate violation with a trailing comment:
    //lint:pdm-allow <rule>: reason
`, progname)
}

// versionLine identifies this build to the go command's cache: it must
// change whenever the binary does, so it hashes the executable.
func versionLine(progname string) string {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return fmt.Sprintf("%s version devel buildID=%x", progname, h.Sum(nil)[:12])
}

// reexecVet runs the standalone invocation through go vet so the
// toolchain handles package loading and export data.
func reexecVet(jsonOut bool, patterns []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "pdmlint: cannot locate own executable: %v\n", err)
		return 1
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	if jsonOut {
		vetArgs = append(vetArgs, "-json")
	}
	vetArgs = append(vetArgs, patterns...)
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(stderr, "pdmlint: running go vet: %v\n", err)
		return 1
	}
	return 0
}

// goVersionRE trims a toolchain version like "go1.24.0" to the
// language version go/types accepts.
var goVersionRE = regexp.MustCompile(`^go\d+\.\d+`)

// analyzeUnit runs the suite over one vet compilation unit.
func analyzeUnit(cfgFile string, jsonOut bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(stderr, "pdmlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "pdmlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// The go command expects a facts file for downstream units; pdmlint
	// keeps no cross-package facts, so a stamp suffices.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("pdmlint.vetx v1\n"), 0o666); err != nil {
			fmt.Fprintf(stderr, "pdmlint: writing facts: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependency visited only for facts; nothing to report.
		return 0
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(stderr, "pdmlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tconf := types.Config{
		Importer: unsafeAware{imp},
		Sizes:    types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		Error:    func(error) {}, // collect nothing; first error returned below
	}
	if v := goVersionRE.FindString(cfg.GoVersion); v != "" {
		tconf.GoVersion = v
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "pdmlint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := Run(fset, files, pkg, info, All())
	if err != nil {
		fmt.Fprintf(stderr, "pdmlint: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		for _, d := range diags {
			enc.Encode(jsonDiagnostic{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s:%d:%d: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	}
	return 2
}

// unsafeAware routes the "unsafe" import to types.Unsafe; the gc
// importer's lookup path has no export data for it.
type unsafeAware struct {
	imp types.Importer
}

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.imp.Import(path)
}
