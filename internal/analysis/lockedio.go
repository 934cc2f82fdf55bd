package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockedio is the PR 3 DiskStore lesson: file I/O executed while the
// index mutex is held serialises every concurrent Get/Put on the disk
// and turns one slow fsync into a store-wide stall. The analyzer flags
// syscall-backed work — os file operations, net dials, syscall and
// os/exec calls, (*os.File) methods, and blob-store calls (methods on
// a cas.Store-shaped type) — executed
//
//   - between a sync.Mutex/RWMutex Lock/RLock and its Unlock (a
//     deferred Unlock holds to the end of the function), or
//   - anywhere inside a function whose name ends in "Locked", the
//     repo's caller-holds-the-lock convention.
//
// The scan is linear within one function body and does not follow
// calls; nested function literals are analysed on their own (a
// goroutine or deferred closure runs outside the window).
var Lockedio = &Analyzer{
	Name: "lockedio",
	Doc: "report file/network/syscall I/O and blob-store calls while a sync mutex is held " +
		"(including *Locked-convention functions)",
	Run: runLockedio,
}

func runLockedio(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			name, body := funcParts(n)
			if body != nil {
				checkLockedWindows(pass, name, body)
			}
			return true
		})
	}
	return nil
}

type lockEvent struct {
	pos    token.Pos
	kind   int // 0 lock, 1 unlock, 2 deferred unlock, 3 io
	key    string
	ioDesc string
}

func checkLockedWindows(pass *Pass, fnName string, body *ast.BlockStmt) {
	info := pass.TypesInfo
	lockedAll := strings.HasSuffix(fnName, "Locked")
	var events []lockEvent

	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its body is someone else's timeline
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				if key, locks, ok := mutexOp(info, n); ok {
					kind := 1
					if locks {
						kind = 0
					} else if deferred {
						kind = 2
					}
					events = append(events, lockEvent{pos: n.Pos(), kind: kind, key: key})
					return true
				}
				if desc, ok := ioCall(info, n); ok {
					events = append(events, lockEvent{pos: n.Pos(), kind: 3, ioDesc: desc})
				}
			}
			return true
		})
	}
	walk(body, false)

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	depth := make(map[string]int)
	held := 0
	for _, ev := range events {
		switch ev.kind {
		case 0:
			depth[ev.key]++
			held++
		case 1:
			if depth[ev.key] > 0 {
				depth[ev.key]--
				held--
			}
		case 2:
			// Deferred unlock: the window stays open to function end.
		case 3:
			if held > 0 {
				pass.Reportf(ev.pos, "%s while a mutex is held; move the I/O outside the critical section", ev.ioDesc)
			} else if lockedAll {
				pass.Reportf(ev.pos, "%s inside %s, which runs with the caller's mutex held", ev.ioDesc, fnName)
			}
		}
	}
}

// mutexOp recognises <expr>.Lock/RLock/Unlock/RUnlock on a
// sync.Mutex/RWMutex (or pointer to one), keyed by the receiver
// expression's source form.
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, locks, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return "", false, false
	}
	f := callee(info, call)
	rn := recvNamed(f)
	if rn == nil || rn.Obj().Pkg() == nil || rn.Obj().Pkg().Path() != "sync" {
		return "", false, false
	}
	if tn := rn.Obj().Name(); tn != "Mutex" && tn != "RWMutex" {
		return "", false, false
	}
	return types.ExprString(sel.X), name == "Lock" || name == "RLock", true
}

// osIOFuncs are the package-level os functions that touch the
// filesystem (predicates like IsNotExist deliberately absent).
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Stat": true, "Lstat": true, "Chmod": true, "Chown": true,
	"Chtimes": true, "Truncate": true, "Link": true, "Symlink": true,
	"Readlink": true,
}

// fileMethods are (*os.File) methods that hit the descriptor.
var fileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadFrom": true, "ReadDir": true,
	"Write": true, "WriteAt": true, "WriteString": true, "WriteTo": true,
	"Sync": true, "Close": true, "Seek": true, "Stat": true, "Truncate": true,
}

// storeMethods is the cas.Store surface plus DiskStore's mapped read;
// any method in this set on a type named Store (or the cas package's
// concrete stores) counts as blob I/O.
var storeMethods = map[string]bool{
	"Get": true, "GetBlob": true, "Put": true, "PutBehind": true,
	"Drain": true, "Delete": true, "List": true,
}

// ioCall classifies a call as syscall-backed I/O.
func ioCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	f := callee(info, call)
	if f == nil {
		return "", false
	}
	name := f.Name()
	rn := recvNamed(f)
	pkg := calleePkgPath(f)
	if rn == nil {
		switch pkg {
		case "os":
			if osIOFuncs[name] {
				return "os." + name, true
			}
		case "net":
			if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || name == "LookupHost" || name == "LookupAddr" {
				return "net." + name, true
			}
		case "net/http":
			if name == "Get" || name == "Post" || name == "PostForm" || name == "Head" {
				return "http." + name, true
			}
		case "syscall":
			return "syscall." + name, true
		}
		return "", false
	}
	recvPkg := ""
	if rn.Obj().Pkg() != nil {
		recvPkg = rn.Obj().Pkg().Path()
	}
	tn := rn.Obj().Name()
	switch {
	case recvPkg == "os" && tn == "File" && fileMethods[name]:
		return "(*os.File)." + name, true
	case recvPkg == "net/http" && tn == "Client":
		return "(*http.Client)." + name, true
	case recvPkg == "os/exec" && tn == "Cmd" &&
		(name == "Run" || name == "Start" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
		return "(*exec.Cmd)." + name, true
	case recvPkg == "net" && (tn == "Conn" || tn == "TCPConn" || tn == "UDPConn" || tn == "UnixConn" || tn == "Listener"):
		return "(net." + tn + ")." + name, true
	case storeMethods[name] && (tn == "Store" || strings.HasSuffix(recvPkg, "/cas") && strings.HasSuffix(tn, "Store")):
		return "(" + tn + ")." + name, true
	}
	return "", false
}
