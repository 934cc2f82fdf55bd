// Command nbtivet runs the repo's custom invariant analyzers (see
// internal/analysis): detmap, allocbound, lockedio, senterr, nopsafe,
// kernelpure, ringchurn, streamflush. It works in two
// modes:
//
// Standalone, over package patterns (exit 1 on findings):
//
//	nbtivet ./...
//	nbtivet -only senterr,detmap ./internal/...
//
// As a go vet tool, speaking cmd/vet's unitchecker protocol — version
// and flag discovery plus a JSON config file per package unit (exit 2
// on findings, mirroring x/tools' unitchecker):
//
//	go vet -vettool=$(which nbtivet) ./...
//
// Suppress a finding in place, with a reason:
//
//	//nbtivet:ignore <analyzer> <reason>
//
// nbtivet help [analyzer] prints what each analyzer enforces and the
// historical bug that motivated it.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"nbticache/internal/analysis"
)

func main() {
	versionFlag := flag.String("V", "", "print version and exit (go vet protocol)")
	flagsFlag := flag.Bool("flags", false, "print flag definitions as JSON and exit (go vet protocol)")
	only := flag.String("only", "", "comma-separated analyzer subset to run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nbtivet [-only a,b] [package patterns | vet.cfg]\n       nbtivet help [analyzer]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
		return
	case *flagsFlag:
		// go vet interrogates supported flags; none of ours need to be
		// driven from the vet command line.
		fmt.Println("[]")
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		var unknown []string
		analyzers, unknown = analysis.ByName(strings.Split(*only, ","))
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "nbtivet: unknown analyzers: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	args := flag.Args()
	if len(args) > 0 && args[0] == "help" {
		printHelp(args[1:], analyzers)
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0], analyzers))
	}
	os.Exit(runStandalone(args, analyzers))
}

// printVersion answers go vet's -V=full probe. The content hash of the
// executable keys cmd/go's vet result cache, so rebuilding the tool
// invalidates stale caches.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("nbtivet version devel buildID=%x\n", h.Sum(nil)[:16])
}

func printHelp(names []string, analyzers []*analysis.Analyzer) {
	if len(names) > 0 {
		analyzers, _ = analysis.ByName(names)
	}
	for _, a := range analyzers {
		fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
	}
}

// runStandalone loads patterns via go list and analyzes every unit,
// returning the exit code.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbtivet: %v\n", err)
		return 2
	}
	exit := 0
	for _, u := range units {
		diags, err := analysis.Run(u, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbtivet: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			exit = 1
		}
	}
	return exit
}

// vetConfig is the package-unit description cmd/vet hands a vettool —
// the same JSON schema x/tools' unitchecker consumes.
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
	Standalone                bool
	SucceedOnTypecheckFailure bool
	VetxOnly                  bool
	VetxOutput                string
	PackageVetx               map[string]string
}

// runVetUnit analyzes one package unit described by a vet config file.
func runVetUnit(cfgPath string, analyzers []*analysis.Analyzer) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbtivet: reading config: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nbtivet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// The protocol requires the facts output file to exist even though
	// this suite exchanges no facts between units.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "nbtivet: writing vetx output: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "nbtivet: %v\n", err)
			return 2
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup), GoVersion: cfg.GoVersion}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "nbtivet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	unit := &analysis.Unit{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}
	diags, err := analysis.Run(unit, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbtivet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
