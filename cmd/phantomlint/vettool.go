// go vet -vettool support: the unit-checker protocol, stdlib-only.
//
// cmd/go drives a vettool in three steps:
//
//	tool -flags          → JSON description of the tool's flags
//	tool -V=full         → version line mixed into the build cache key
//	tool [-json] x.cfg   → analyze one package described by the JSON cfg
//
// The cfg names the package's Go files and maps its imports to compiled
// export-data files from the build cache, which the stdlib gc importer
// can read directly via a lookup function — so this mode needs neither
// the source importer nor golang.org/x/tools.
//
// Since phantomlint v2 the suite exchanges facts (taint summaries,
// wall-clock-boundary marks), and each vet unit is a separate process, so
// facts ride the driver's .vetx files: PackageVetx maps each import to
// the fact file its unit wrote, which seeds this unit's store; VetxOutput
// receives this unit's own fact file. Dependency-only packages arrive
// with VetxOnly=true — module-local ones get a real facts-only pass
// (their summaries are what make cross-package taint work), while stdlib
// and external dependencies write an empty file: the analyzers' root
// tables already cover them, so the vettool and the standalone driver
// reach identical verdicts.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// vettoolVersion feeds the build cache key; bump it when analyzer
// semantics or the fact wire format change so cached vet verdicts and
// .vetx files invalidate.
const vettoolVersion = "phantomlint version 4 " +
	"suite=detflow,goroutineguard,maporder,simdeterminism,timerguard,traceguard,wallclockboundary " +
	"factfmt=1"

// vetConfig is the package description cmd/go writes for a vettool. Field
// set and meaning follow the x/tools unitchecker contract.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// vettoolMain detects and serves a vet-driver invocation. It returns true
// when it handled the process (and may have exited), false when the
// arguments are for the standalone CLI.
func vettoolMain(suite []*analysis.Analyzer) bool {
	args := os.Args[1:]
	jsonOut := false
	cfgPath := ""
	for _, a := range args {
		switch {
		case a == "-V=full":
			fmt.Println(vettoolVersion)
			return true
		case a == "-flags":
			type flagDef struct {
				Name  string
				Bool  bool
				Usage string
			}
			defs := []flagDef{
				{Name: "V", Bool: false, Usage: "print version and exit"},
				{Name: "flags", Bool: true, Usage: "print flags in JSON"},
				{Name: "json", Bool: true, Usage: "emit JSON output"},
			}
			b, _ := json.Marshal(defs)
			fmt.Println(string(b))
			return true
		case a == "-json":
			jsonOut = true
		case strings.HasSuffix(a, ".cfg"):
			cfgPath = a
		}
	}
	if cfgPath == "" {
		return false
	}
	if err := runUnitchecker(cfgPath, jsonOut, suite); err != nil {
		fmt.Fprintln(os.Stderr, "phantomlint:", err)
		os.Exit(1)
	}
	return true
}

// moduleLocal reports whether an import path belongs to this module —
// the only packages whose facts must be computed from source. Everything
// else is covered by the analyzers' root tables.
func moduleLocal(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

func runUnitchecker(cfgPath string, jsonOut bool, suite []*analysis.Analyzer) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %v", cfgPath, err)
	}

	// The driver expects a facts file for every package it schedules,
	// dependencies included. Non-local dependencies carry no facts, so an
	// empty file satisfies the contract and keeps their units cheap.
	if cfg.VetxOnly && !moduleLocal(cfg.ImportPath) {
		if cfg.VetxOutput != "" {
			return os.WriteFile(cfg.VetxOutput, []byte{}, 0o666)
		}
		return nil
	}

	// Seed the store with every dependency's fact file. Encode re-emits
	// inherited facts, so facts flow through indirect dependencies even
	// when the middle package exports nothing of its own.
	store := analysis.NewStore(suite)
	for _, vetxFile := range cfg.PackageVetx {
		depData, err := os.ReadFile(vetxFile)
		if err != nil {
			return fmt.Errorf("reading dependency facts: %v", err)
		}
		if err := store.Decode(depData); err != nil {
			return fmt.Errorf("decoding %s: %v", vetxFile, err)
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil
			}
			return err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := load.NewInfo()
	conf := types.Config{Importer: compilerImporter}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil
		}
		return fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}

	pkg := &analysis.Package{
		ImportPath: cfg.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		TypesInfo:  info,
	}
	findings, store, err := analysis.RunGraph([]*analysis.Package{pkg}, suite, analysis.GraphOptions{
		Store:     store,
		FactsOnly: cfg.VetxOnly,
	})
	if err != nil {
		return err
	}
	// The standalone loader analyzes non-test files only (the invariants
	// govern simulation code; tests legitimately use wall-clock timeouts
	// and ad-hoc output). vet drives test variants through the same cfg
	// path, so drop test-file findings to keep the two modes' verdicts
	// identical.
	kept := findings[:0]
	for _, f := range findings {
		if !strings.HasSuffix(f.Pos.Filename, "_test.go") {
			kept = append(kept, f)
		}
	}
	findings = kept

	// Write facts before any reporting path can exit: the driver needs
	// the file even when the unit has diagnostics.
	if cfg.VetxOutput != "" {
		factData, err := store.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.VetxOutput, factData, 0o666); err != nil {
			return err
		}
	}
	if len(findings) == 0 {
		return nil
	}
	if jsonOut {
		// {"pkg": {"analyzer": [{"posn": ..., "message": ...}]}}
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := make(map[string][]jsonDiag)
		for _, f := range findings {
			byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], jsonDiag{Posn: f.Pos.String(), Message: f.Message})
		}
		out := map[string]map[string][]jsonDiag{cfg.ImportPath: byAnalyzer}
		b, _ := json.MarshalIndent(out, "", "\t")
		fmt.Println(string(b))
		return nil
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
	}
	os.Exit(2)
	return nil
}
