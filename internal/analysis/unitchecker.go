package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool` unit-checker protocol —
// the same contract golang.org/x/tools/go/analysis/unitchecker speaks,
// reimplemented on the standard library. cmd/go drives the tool three
// ways:
//
//	fragvet -V=full          print a content-derived version for the
//	                         build cache
//	fragvet -flags           print the supported flags as JSON
//	fragvet <file>.cfg       analyze one compilation unit described by
//	                         the JSON config, exit 2 on findings
//
// The cfg supplies export-data paths for every import, so the checker
// runs fully offline and per-package, exactly as cmd/go schedules it.

// vetConfig mirrors the JSON cmd/go writes for each vet unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Vet runs the unit-checker protocol over args. It returns the process
// exit code: 0 clean, 1 tool failure, 2 findings.
func Vet(args []string, analyzers []*Analyzer) int {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			return printVersion()
		case a == "-flags" || a == "--flags":
			// No tool-specific flags; cmd/go only needs valid JSON.
			fmt.Println("[]")
			return 0
		}
	}
	cfgFile := args[len(args)-1]
	code, err := vetUnit(cfgFile, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
		return 1
	}
	return code
}

// IsVetInvocation reports whether args look like cmd/go driving the
// tool as a vettool.
func IsVetInvocation(args []string) bool {
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" || a == "-flags" || a == "--flags" {
			return true
		}
	}
	return len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg")
}

// printVersion emits the version line cmd/go fingerprints for its
// build cache: content-derived, so a rebuilt fragvet invalidates
// cached vet results.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "fragvet: %v\n", err)
		return 1
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), string(h.Sum(nil)))
	return 0
}

// vetUnit analyzes one compilation unit.
func vetUnit(cfgFile string, analyzers []*Analyzer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 1, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 1, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	// cmd/go expects the facts file regardless; fragvet's analyzers are
	// factless, so an empty file satisfies the contract.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 1, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}
	// The generated test-main unit ("p.test") is synthesized code.
	if strings.HasSuffix(cfg.ImportPath, ".test") {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 1, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0, nil
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: imp}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := NewInfo()
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 1, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	diags, err := Run(&Package{Fset: fset, Files: files, Types: tpkg, Info: info}, analyzers)
	if err != nil {
		return 1, err
	}
	// Test-augmented units ("p [p.test]") re-analyze the library files
	// together with in-package tests; report only shipped code so each
	// finding appears exactly once across units.
	code := 0
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pos, d.Message, d.Analyzer)
		code = 2
	}
	return code, nil
}
