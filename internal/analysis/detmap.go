package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detmap guards the determinism contract: content-addressed job IDs,
// the kernel-vs-reference-model oracle, and the 1-vs-3-shard
// byte-identical cluster sweeps all assume no Go map iteration order
// ever leaks into canonical encodings or wire output. The analyzer
// flags `for ... range m` over a map when the loop body
//
//   - calls an encoding/output sink (a Write*/Fprint*/Encode*/Marshal*
//     call, or anything whose name mentions "canonical"/"ContentID"),
//     so per-iteration output order is map order; or
//   - appends loop-derived values to a slice that then escapes the
//     function (returned, passed on, or stored) without a sort call
//     laundering the order first; or
//   - concatenates loop-derived values onto an outer string.
//
// The canonical fix is collect-keys → sort → iterate sorted, which the
// analyzer recognises as the negative case.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc: "report map iteration whose order reaches canonical encoders, content-address hashing, " +
		"wire output, or escapes via an unsorted slice",
	Run: runDetmap,
}

func runDetmap(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, body := funcParts(n)
			if body == nil {
				return true
			}
			checkFuncMapRanges(pass, fn, body)
			return true
		})
	}
	return nil
}

// funcParts extracts the name and body of a function declaration or
// literal node (body nil otherwise).
func funcParts(n ast.Node) (name string, body *ast.BlockStmt) {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Name.Name, n.Body
	case *ast.FuncLit:
		return "func literal", n.Body
	}
	return "", nil
}

func checkFuncMapRanges(pass *Pass, fnName string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return true // literals get their own visit
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.Types[rng.X].Type; !isMapType(t) {
			return true
		}
		checkMapRange(pass, body, rng)
		return true
	})
}

func checkMapRange(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	loopVars := make(map[types.Object]bool)
	for _, e := range [2]ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	// Escaped-append targets found in the body, to be cleared by a
	// later sort call in the enclosing function.
	appended := make(map[types.Object]token.Pos)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc, ok := sinkCall(info, n); ok {
				pass.Reportf(rng.Pos(), "map iteration order reaches %s; iterate sorted keys instead", desc)
				return false
			}
		case *ast.AssignStmt:
			checkAssignInLoop(pass, info, rng, n, loopVars, appended)
		}
		return true
	})

	if len(appended) == 0 {
		return
	}
	for obj := range appended {
		if sortedLater(info, funcBody, obj) {
			delete(appended, obj)
		}
	}
	for obj, pos := range appended {
		if escapes(info, funcBody, obj, pos) {
			pass.Reportf(rng.Pos(), "map iteration order escapes through %q, which is never sorted; sort it (or the keys) before it leaves the function", obj.Name())
		}
	}
}

// checkAssignInLoop records order-sensitive accumulation: appends of
// loop-derived values, and string concatenation onto an outer variable.
func checkAssignInLoop(pass *Pass, info *types.Info, rng *ast.RangeStmt, as *ast.AssignStmt, loopVars map[types.Object]bool, appended map[types.Object]token.Pos) {
	mentionsLoopVar := func(e ast.Expr) bool {
		used := make(map[types.Object]bool)
		usedObjects(info, e, used)
		for obj := range used {
			if loopVars[obj] {
				return true
			}
		}
		return false
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		bt, _ := typeUnder(info, as.Lhs[0]).(*types.Basic)
		if bt != nil && bt.Info()&types.IsString != 0 && mentionsLoopVar(as.Rhs[0]) {
			if obj := identObj(info, as.Lhs[0]); obj != nil && !loopVars[obj] {
				pass.Reportf(as.Pos(), "map iteration order is baked into string %q; sort the keys first", obj.Name())
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if !isBuiltinCall(info, call, "append") {
			continue
		}
		hasLoopData := false
		for _, arg := range call.Args[1:] {
			if mentionsLoopVar(arg) {
				hasLoopData = true
				break
			}
		}
		if !hasLoopData || i >= len(as.Lhs) {
			continue
		}
		if obj := identObj(info, as.Lhs[i]); obj != nil {
			if _, seen := appended[obj]; !seen {
				appended[obj] = as.Pos()
			}
		}
	}
}

// sinkCall classifies calls whose per-iteration invocation order is
// observable: writers, formatters, encoders, hashes, canonicalisers.
func sinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	f := callee(info, call)
	if f == nil {
		return "", false
	}
	name, pkg := f.Name(), calleePkgPath(f)
	switch {
	case pkg == "fmt" && (strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")):
		return "fmt." + name, true
	case recvNamed(f) != nil && (name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune"):
		return "(" + recvNamed(f).Obj().Name() + ")." + name, true
	case strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "Marshal"):
		return name, true
	case strings.Contains(strings.ToLower(name), "canonical") || strings.Contains(name, "ContentID"):
		return name, true
	}
	return "", false
}

// sortedLater reports whether obj is handed to a sort anywhere in the
// function: sort.*/slices.Sort* with obj as an argument, or any call
// whose name contains "sort" (SortSpans and friends).
func sortedLater(info *types.Info, funcBody *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		f := callee(info, call)
		if f == nil {
			return true
		}
		pkg := calleePkgPath(f)
		sortish := pkg == "sort" || pkg == "slices" && strings.HasPrefix(f.Name(), "Sort") ||
			strings.Contains(strings.ToLower(f.Name()), "sort")
		if !sortish {
			return true
		}
		for _, arg := range call.Args {
			if identObj(info, arg) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// escapes reports whether obj leaves the function carrying its order:
// returned, passed to a call (append and sorts aside), stored into a
// field or index, or sent on a channel, at any point after pos.
func escapes(info *types.Info, funcBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	usesObj := func(e ast.Expr) bool { return identObj(info, e) == obj }
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < pos {
			return !found
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesObj(r) {
					found = true
				}
			}
		case *ast.CallExpr:
			if isBuiltinCall(info, n, "append") {
				return true
			}
			for _, arg := range n.Args {
				if usesObj(arg) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !usesObj(rhs) || i >= len(n.Lhs) {
					continue
				}
				switch unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					found = true
				}
			}
		case *ast.SendStmt:
			if usesObj(n.Value) {
				found = true
			}
		}
		return !found
	})
	return found
}
