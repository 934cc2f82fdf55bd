// Package analysis is nbtivet's analyzer framework: a dependency-free
// mirror of the golang.org/x/tools/go/analysis API surface this repo's
// custom vet suite needs. The container this codebase grows in has no
// module proxy access, so instead of depending on x/tools the package
// re-implements the small slice it uses — Analyzer, Pass, Diagnostic,
// a package loader built on `go list -export` plus the standard
// library's gc-export-data importer, and a `// want`-comment test
// harness (see the analysistest subpackage). Analyzer Run functions
// are written against this API shape so they would port to the real
// x/tools framework mechanically if the dependency ever lands.
//
// The suite itself enforces the repo's hand-won invariants — the bug
// classes PRs 2–6 paid review rounds to find and fix:
//
//   - detmap: map iteration feeding canonical encoders, content-address
//     hashing, or wire output without a dominating key sort.
//   - allocbound: make() sized by a decoded untrusted integer with no
//     dominating bound check (the ReadBinary ~100 GiB preallocation).
//   - lockedio: file/network/blob-store I/O while a sync.Mutex is held
//     (the DiskStore index-mutex serialisation).
//   - senterr: ==/!= against exported Err* sentinels, and fmt.Errorf
//     stringifying an error without %w.
//   - nopsafe: internal/obs handle methods missing the documented
//     nil-receiver no-op guard.
//   - kernelpure: wall-clock, randomness, map iteration or goroutine
//     spawns inside the hot kernel packages (core, cache, pmu, index).
//   - ringchurn: Ring.Add/Remove outside the guarded mutation API, so
//     live-ring churn keeps its bookkeeping.
//   - streamflush: streaming handlers that skip a Flush after an event
//     write, or write to the stream while a mutex is held.
//
// Findings are suppressed per line with an explanation:
//
//	//nbtivet:ignore <analyzer> <reason>
//
// placed on the offending line or the line above. A directive without
// a reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check over one package unit.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nbtivet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `nbtivet help` prints: what
	// the analyzer enforces and which historical bug motivated it.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one package unit: syntax, types,
// and a diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over a loaded unit and returns the
// surviving diagnostics: suppressed findings are dropped, and malformed
// suppression directives are reported as findings of the pseudo
// analyzer "directive". Diagnostics come back sorted by position.
func Run(unit *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      unit.Fset,
			Files:     unit.Files,
			Pkg:       unit.Pkg,
			TypesInfo: unit.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, unit.ImportPath, err)
		}
	}
	dirs, bad := directives(unit.Fset, unit.Files, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		if !dirs.suppresses(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept, nil
}
