package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Ringchurn is the PR 9 elastic-membership lesson: the coordinator's
// live hash ring is guarded by the coordinator mutex and every
// membership change must flow through the guarded mutate API
// (`mutateRing`), which is where join/rejoin/evict accounting and the
// alive-flag bookkeeping live. A bare `ring.Add` / `ring.Remove` on the
// live ring bypasses that bookkeeping: the ring and the shard table
// drift, and churn metrics lie. The analyzer flags direct Add/Remove
// calls on a Ring-shaped type (a named type "Ring" that also has an
// "Owners" method) anywhere except the sanctioned construction and
// mutation sites: NewRing, mutateRing, Ring's own methods, and test
// files.
var Ringchurn = &Analyzer{
	Name: "ringchurn",
	Doc: "report Ring.Add/Remove calls outside the guarded mutation API " +
		"(NewRing, mutateRing, Ring's own methods); live-ring churn must keep its bookkeeping",
	Run: runRingchurn,
}

func runRingchurn(pass *Pass) error {
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filepath.Base(filename), "_test.go") {
			// Tests assemble and churn throwaway rings by hand.
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if ringchurnExempt(pass.TypesInfo, fn) {
				continue
			}
			// Function literals inside a non-exempt function inherit its
			// verdict: a goroutine or deferred closure churning the ring
			// is still churn.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				target := callee(pass.TypesInfo, call)
				if ring := ringRecv(target); ring != nil {
					switch target.Name() {
					case "Add", "Remove":
						pass.Reportf(call.Pos(), "%s.%s outside the guarded ring-mutation API; route membership changes through mutateRing",
							ring.Obj().Name(), target.Name())
					}
				}
				return true
			})
		}
	}
	return nil
}

// ringchurnExempt reports whether fn is a sanctioned mutation site:
// the constructor, the guarded mutate API, or a method on Ring itself.
func ringchurnExempt(info *types.Info, fn *ast.FuncDecl) bool {
	switch fn.Name.Name {
	case "NewRing", "mutateRing":
		return true
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	f, _ := info.Defs[fn.Name].(*types.Func)
	return ringRecv(f) != nil
}

// ringRecv returns f's receiver type when it is Ring-shaped — a named
// type called "Ring" that also has an "Owners" method (the structural
// signature of the cluster ring, matched without importing it so the
// stdlib-only fixture can stand in) — and nil otherwise.
func ringRecv(f *types.Func) *types.Named {
	named := recvNamed(f)
	if named == nil || named.Obj().Name() != "Ring" {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Owners" {
			return named
		}
	}
	return nil
}
