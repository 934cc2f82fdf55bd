package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// kernelPackages are the hot simulation kernel packages whose results
// must be a pure function of their inputs: the oracle that checks the
// kernel against a naive reference model, the content-addressed result
// cache, and the 1-vs-3-shard byte-identical cluster contract all
// assume a job simulated twice produces the same bits. Wall-clock
// reads, randomness, map-iteration order, and ad-hoc goroutine
// scheduling are the four ways nondeterminism has historically tried to
// get in.
var kernelPackages = map[string]bool{
	"core":  true,
	"cache": true,
	"pmu":   true,
	"index": true,
}

// Kernelpure rejects nondeterminism sources inside the kernel
// packages: time.Now/Since/Until/Sleep, anything from math/rand or
// math/rand/v2, `go` statements, and map iteration. Test files are
// exempt — a _test.go file may seed math/rand for input generation
// without touching the determinism contract.
var Kernelpure = &Analyzer{
	Name: "kernelpure",
	Doc: "report wall-clock reads, math/rand, map iteration, and goroutine spawns " +
		"inside the hot kernel packages (core, cache, pmu, index)",
	Run: runKernelpure,
}

func runKernelpure(pass *Pass) error {
	if !kernelPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filepath.Base(filename), "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned in kernel package %s; the kernel must stay schedule-independent", pass.Pkg.Name())
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.Types[n.X].Type) {
					pass.Reportf(n.Pos(), "map iteration in kernel package %s; iteration order is nondeterministic", pass.Pkg.Name())
				}
			case *ast.CallExpr:
				f := callee(pass.TypesInfo, n)
				if f == nil {
					return true
				}
				switch calleePkgPath(f) {
				case "time":
					switch f.Name() {
					case "Now", "Since", "Until", "Sleep":
						pass.Reportf(n.Pos(), "time.%s in kernel package %s; wall-clock state must not reach simulation results", f.Name(), pass.Pkg.Name())
					}
				case "math/rand", "math/rand/v2":
					pass.Reportf(n.Pos(), "math/rand in kernel package %s; randomness breaks bit-identical replay", pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}
